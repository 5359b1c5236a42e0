"""Seeded request stream for the serve-sweep workload.

The request universe is a fixed grid of small kernels (dims 256-384, so
per-request overhead shows next to the simulation). A session shuffles
it with the seed, prefills the store with one half, and streams requests
in which 30 % are writes (keys neither stored nor seen earlier:
one live run plus one store append each) and the rest are reads (keys
stored or already seen in the stream). The program receives only the
generated lines.
"""

import random

KERNELS = (("bicg", 2), ("atax", 2), ("mvt", 1), ("gesummv", 1))
DIMS = (256, 320, 384)
WORKS = ("llc-r1", "llc-r4", "llc-r8", "spm", "base")
T_BYTES = (16384, 32768, 65536)
SCENARIOS = ("isolation", "interference", "corunners")
SEEDS = (11, 12, 13, 14)

WRITE_FRAC = 0.3
BATCH = 8


def universe():
    """Every request line of the sweep, in a fixed order."""
    lines = []
    for name, arity in KERNELS:
        for d in DIMS:
            dims = "x".join([str(d)] * arity)
            for work in WORKS:
                for t in T_BYTES:
                    for scenario in SCENARIOS:
                        for seed in SEEDS:
                            lines.append(
                                f"v1 kernel={name}:{dims} platform=tx1 work={work} "
                                f"t={t} seed={seed} scenario={scenario} noise=64x32")
    return lines


class Session:
    """One generated session: prefill lines, the request stream and which
    of its requests are writes."""

    def __init__(self, prefill, requests, writes):
        self.prefill = prefill
        self.requests = requests
        self.writes = writes

    def batches(self):
        """The stream in `BATCH`-sized `(tag, line)` batches."""
        tagged = [(f"r{i}", line) for i, line in enumerate(self.requests)]
        return [tagged[i:i + BATCH] for i in range(0, len(tagged), BATCH)]

    def stream_text(self):
        """The protocol text the client pipes: batches, each closed by
        `flush`."""
        out = []
        for batch in self.batches():
            out.extend(f"req {tag} {line}" for tag, line in batch)
            out.append("flush")
        return "\n".join(out) + "\n"

    def prefill_text(self):
        return "".join(f"req p{i} {line}\n" for i, line in enumerate(self.prefill))


def generate(seed, session, n_requests):
    """The `session`-th session of run `seed`: deterministic in both.
    Exactly `round(WRITE_FRAC * n_requests)` requests are writes, at
    seeded positions, so every session does the same amount of live work."""
    rng = random.Random(f"serve-sweep:{seed}:{session}")
    keys = universe()
    rng.shuffle(keys)
    half = len(keys) // 2
    prefill, unseen = keys[:half], keys[half:]
    n_writes = min(len(unseen), round(WRITE_FRAC * n_requests))
    write_at = set(rng.sample(range(n_requests), n_writes))
    readable = list(prefill)
    requests = []
    for i in range(n_requests):
        if i in write_at:
            line = unseen.pop()
            readable.append(line)
        else:
            line = rng.choice(readable)
        requests.append(line)
    return Session(prefill, requests, n_writes)
