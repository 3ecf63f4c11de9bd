"""R001 fixture: superstep tasks mutating closed-over shared state.

Every write here races under a real-thread backend; the linter must
flag each untracked mutation site.
"""


def untracked_subscript_write(engine, items, dist):
    def task(v):
        dist[v] = 0.0  # shared ndarray, no tracker
        return v

    return engine.parallel_for(items, task)


def untracked_method_mutation(engine, items):
    seen = set()

    def task(v):
        seen.add(v)  # closed-over set mutated in a superstep
        return v

    return engine.parallel_for(items, task)


def untracked_inline_lambda(engine, items, hits):
    return engine.parallel_for(items, lambda i: hits.append(i) or i)


def untracked_assigned_lambda(engine, items, parent):
    task = lambda v: parent.update({v: -1})  # noqa: E731 (fixture)
    return engine.parallel_for(items, task)
