"""Multi-series ingest rounds, shared by the fleet tests."""


def lockstep_rounds(datasets, chunk, with_ta=False):
    """One batch per round, every series advancing ``chunk`` points in
    lock-step until it runs out; entries are ``(name, tg)``, or
    ``(name, tg, ta)`` with ``with_ta``."""
    longest = max(len(ds.tg) for ds in datasets.values())
    return [
        [
            (name, ds.tg[pos : pos + chunk], ds.ta[pos : pos + chunk])
            if with_ta
            else (name, ds.tg[pos : pos + chunk])
            for name, ds in datasets.items()
            if pos < len(ds.tg)
        ]
        for pos in range(0, longest, chunk)
    ]
