"""Graph traversals shared by the layers.

A graph is given by its out-edge lists: ``adj[v]`` lists the nodes v has
an edge to, in a fixed order.  ``sccs`` and ``reverse`` need the nodes
to be 0..n-1; the others take any indexable ``adj``, so symbol graphs
can be dicts.  Every loop is iterative, so long paths never meet the
recursion limit.
"""

from __future__ import annotations

from collections import deque


def reverse(out):
    """In-edge lists of a graph on 0..n-1, aligned with the node indexing."""
    rev = [[] for _ in out]
    for v, outs in enumerate(out):
        for w in outs:
            rev[w].append(v)
    return [tuple(r) for r in rev]


def undirected(nodes, arcs):
    """Neighbour sets of the graph on ``nodes`` with each arc both ways."""
    nbr = {v: set() for v in nodes}
    for s, t in arcs:
        nbr[s].add(t)
        nbr[t].add(s)
    return nbr


def reach(adj, starts):
    """The set of nodes reachable from ``starts``, the starts included."""
    seen = set(starts)
    todo = list(seen)
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def sccs(adj):
    """Strongly connected components of a graph on 0..n-1.

    Iterative Tarjan (1972).  Returns (components, component index of
    each node); components come out in reverse topological order of the
    condensation, so its sinks come first.
    """
    n = len(adj)
    index = [None] * n
    low = [0] * n
    comp = [None] * n
    comps = []
    stack = []
    count = 0
    for s in range(n):
        if index[s] is not None:
            continue
        index[s] = low[s] = count
        count += 1
        stack.append(s)
        work = [(s, 0)]
        while work:
            v, i = work[-1]
            if i < len(adj[v]):
                work[-1] = (v, i + 1)
                w = adj[v][i]
                if index[w] is None:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, 0))
                elif comp[w] is None and index[w] < low[v]:
                    # w is still on the stack, so it shares v's component
                    low[v] = index[w]
                continue
            work.pop()
            if work and low[v] < low[work[-1][0]]:
                low[work[-1][0]] = low[v]
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    comp[w] = len(comps)
                    members.append(w)
                    if w == v:
                        break
                comps.append(members)
    return comps, comp


def shortest_path(adj, starts, goal):
    """Fewest-edge walk from one of ``starts`` to ``goal``, or None.

    FIFO breadth-first search that takes out-edges in listed order and
    keeps the first parent that finds a node, so ties are broken the
    same way on every run.  Returns the nodes from a start to the goal;
    a goal among the starts gives the one-node walk.
    """
    parent = dict.fromkeys(starts)
    if goal in parent:
        return [goal]
    todo = deque(parent)
    while todo:
        v = todo.popleft()
        for w in adj[v]:
            if w in parent:
                continue
            parent[w] = v
            if w == goal:
                path = [w]
                while parent[path[-1]] is not None:
                    path.append(parent[path[-1]])
                return path[::-1]
            todo.append(w)
    return None
