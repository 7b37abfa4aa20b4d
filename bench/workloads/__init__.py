"""The five benchmark workloads; each module exposes ``run(ctx)`` (the
measured or traced run) and, for in-process workloads, ``cold()`` (one
cold iteration, timed from outside by the set-up probe)."""
