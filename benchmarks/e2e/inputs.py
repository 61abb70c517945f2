"""Seeded inputs of the serving benchmark, as plain data.

Nothing here imports the program under test: the graph is a node list and an
edge list, a pattern is a dict of labelled nodes and quantified edges, a delta
batch is two edge lists.  ``run.py`` materialises them into the program's
types, so the program only ever receives generated inputs, and
:func:`inputs_digest` pins exactly what it received.

The graph ``social`` is eight pokec-like communities (the label vocabulary of
``repro.datasets.pokec_like``, so the paper's Q1-Q3 apply).  Every entity
node (album, product, club, city, hobby, the featured phone) is local to its
community and only a few peripheral *ambassador* persons carry cross-community
edges: that keeps d=2 balls mostly inside one community, which is what lets
fleet delta routing skip shards at all.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, NamedTuple, Sequence, Tuple

Node = Tuple[str, str]                 # (id, label)
Edge = Tuple[str, str, str]            # (source, target, label)
Quant = Tuple[str, float, bool]        # (op, value, is_ratio)
PatternSpec = Dict[str, object]        # name / family / focus / nodes / edges
DeltaSpec = Dict[str, object]          # inserts / deletes / cross

NUM_COMMUNITIES = 8
USERS_PER_COMMUNITY = 125
AMBASSADORS = 6                        # per community and ring direction
BRIDGE_FRACTION = 0.015
FOLLOWEES = 7

SOCIAL = ("follow", "is_friend")

EXISTS: Quant = (">=", 1, False)
NEGATED: Quant = ("=", 0, False)


# --------------------------------------------------------------------- graph


class SocialGraph(NamedTuple):
    """The benchmark graph as plain data, plus what the driver keeps about it."""

    nodes: List[Node]
    edges: List[Edge]
    community: Dict[str, int]          # node -> community id
    outward: List[List[str]]           # per community: ambassadors facing c+1
    inward: List[List[str]]            # per community: ambassadors facing c-1


def social_graph(seed: int) -> SocialGraph:
    """The graph ``social`` for *seed*.

    Communities form a ring: community c is tied to c+1 through a handful of
    *ambassadors* - peripheral members with few local ties and no item edges
    (weak ties bridge communities) - so the 2-hop ball of one community covers
    roughly a fifth of its ring neighbours and nothing beyond them.
    """
    rng = random.Random(f"social-{seed}")
    nodes: List[Node] = []
    edges: Dict[Edge, None] = {}       # insertion-ordered set
    community: Dict[str, int] = {}
    outward: List[List[str]] = []
    inward: List[List[str]] = []

    def add_edge(source: str, target: str, label: str) -> None:
        if source != target:
            edges[(source, target, label)] = None

    for c in range(NUM_COMMUNITIES):
        def entities(prefix: str, label: str, count: int) -> List[str]:
            ids = [f"c{c}_{prefix}{i}" for i in range(count)]
            for node in ids:
                nodes.append((node, label))
                community[node] = c
            return ids

        users = entities("u", "person", USERS_PER_COMMUNITY)
        albums = entities("album", "album", 4)
        products = entities("prod", "product", 3)
        clubs = entities("club", "music_club", 2)
        cities = entities("city", "city", 2)
        hobbies = entities("hobby", "hobby", 3)
        phone = entities("phone", "Redmi_2A", 1)[0]
        items = products + [phone]
        regular = users[: -2 * AMBASSADORS]
        outward.append(users[-2 * AMBASSADORS: -AMBASSADORS])
        inward.append(users[-AMBASSADORS:])

        follows: Dict[str, List[str]] = {}
        for user in regular:
            add_edge(user, rng.choice(cities), "live_in")
            if rng.random() < 0.5:
                add_edge(user, rng.choice(clubs), "in")
            if rng.random() < 0.6:
                add_edge(user, rng.choice(hobbies), "hobby")
            follows[user] = [f for f in rng.sample(regular, FOLLOWEES) if f != user]
            for followee in follows[user]:
                add_edge(user, followee, "follow")
            for album in albums:
                if rng.random() < 0.12:
                    add_edge(user, album, "like")
            for item in items:
                if rng.random() < 0.10:
                    add_edge(user, item, "recom")
                if rng.random() < 0.08:
                    add_edge(user, item, "buy")
            if rng.random() < 0.25:
                add_edge(user, rng.choice(items), "post")
            for friend in rng.sample(regular, 2):
                add_edge(user, friend, "is_friend")
        for user in outward[c] + inward[c]:
            add_edge(user, rng.choice(cities), "live_in")
            for followee in rng.sample(regular, 2):
                add_edge(user, followee, "follow")
            add_edge(user, rng.choice(regular), "is_friend")

        # Planted cohorts, as in pokec_like: they keep the paper's Q1-Q3 and
        # the higher-threshold variants non-trivially satisfiable.
        planted = USERS_PER_COMMUNITY // 10
        for user in regular[:planted]:                                     # Q1
            add_edge(user, clubs[0], "in")
            keep = max(1, round(len(follows[user]) * 0.9))
            for followee in follows[user][:keep]:
                add_edge(followee, albums[0], "like")
            add_edge(user, albums[0], "like")
            add_edge(user, albums[0], "buy")
        for user in regular[planted: 2 * planted]:                         # Q2
            for followee in follows[user]:
                add_edge(followee, phone, "recom")
            add_edge(user, phone, "buy")
        detractors = regular[-max(2, planted // 2):]
        for detractor in detractors:
            add_edge(detractor, phone, "bad_rating")
        for index, user in enumerate(regular[2 * planted: 3 * planted]):   # Q3
            for followee in follows[user]:
                add_edge(followee, phone, "recom")
            if index % 2:
                add_edge(user, detractors[index % len(detractors)], "follow")

    bridges = round(BRIDGE_FRACTION * len(edges))
    while bridges > 0:
        c = rng.randrange(NUM_COMMUNITIES)
        pair = [rng.choice(outward[c]), rng.choice(inward[(c + 1) % NUM_COMMUNITIES])]
        rng.shuffle(pair)
        edge = (pair[0], pair[1], rng.choice(SOCIAL))
        if edge not in edges:
            edges[edge] = None
            bridges -= 1
    return SocialGraph(nodes, list(edges), community, outward, inward)


# ------------------------------------------------------------------ patterns

ITEM = (("like", "album"), ("recom", "product"), ("buy", "product"),
        ("recom", "Redmi_2A"), ("buy", "Redmi_2A"), ("post", "product"))
MEMBER = (("in", "music_club"), ("live_in", "city"), ("hobby", "hobby"))

# Thresholds lean low: outside the planted cohorts a person has ~0.7 followees
# doing any given thing, so most of the pool must ask for 1-3 or a small share.
# The ratio grid is fine (every 2 points) to make the pool large: a person has
# about seven followees, so neighbouring ratios often select the same people,
# but each is a fingerprint the program has never seen.
COUNTS: Tuple[Quant, ...] = tuple((">=", p, False) for p in (1, 2, 3, 4, 5)) + tuple(
    ("=", p, False) for p in (1, 2, 3))
RATIOS: Tuple[Quant, ...] = tuple((">=", float(r), True) for r in range(4, 82, 2)) + (("=", 100.0, True),)
QUANTS = COUNTS + RATIOS


def _chain(social, relation, target, quant):
    return ((("xo", "person"), ("z", "person"), ("y", target)),
            (("xo", "z", social, quant), ("z", "y", relation, EXISTS)))


def _triangle(social, relation, target, quant):
    nodes, edges = _chain(social, relation, target, quant)
    return nodes, edges + (("xo", "y", relation, EXISTS),)


def _club(social, relation, target, quant, member, group):
    nodes, edges = _triangle(social, relation, target, quant)
    return nodes + (("m", group),), edges + (("xo", "m", member, EXISTS),)


def _lag(social, relation, target, quant):
    nodes, edges = _chain(social, relation, target, quant)
    return nodes, edges + (("xo", "y", relation, NEGATED),)


def _neg1(social, relation, bad, quant):
    return ((("xo", "person"), ("z1", "person"), ("z2", "person"), ("phone", "Redmi_2A")),
            (("xo", "z1", social, quant), ("z1", "phone", relation, EXISTS),
             ("xo", "z2", social, NEGATED), ("z2", "phone", bad, EXISTS)))


def _neg2(social, relation, bad, quant, member, group):
    nodes, edges = _neg1(social, relation, bad, quant)
    return nodes + (("m", group),), edges + (("xo", "m", member, NEGATED),)


Cell = Tuple[str, List[tuple]]         # (family, the shapes that differ only in their threshold)


def pattern_cells() -> List[Cell]:
    """Every pattern the benchmark can ask, as *cells* of threshold variants.

    A cell fixes the shape and the labels - what the query is about - and its
    members differ only in the counting quantifier on the social edge, the way
    a TPC query template differs only in its substitution parameters.  All
    shapes have radius <= 2 around the person focus ``xo``:

    ``chain`` (3 nodes; Q2 is one), ``triangle`` (3 nodes, the Q1 core),
    ``club`` (4 nodes; Q1 is one), ``lag`` (3 nodes, one negated edge: my
    followees did it, I did not), ``neg1`` (4 nodes, one negated edge; Q3 is
    one), ``neg2`` (5 nodes, two negated edges on different branches).
    Distinct members have distinct canonical fingerprints (the driver checks).
    """
    cells: List[Cell] = []
    for social in SOCIAL:
        for relation, target in ITEM:
            cells.append(("chain", [_chain(social, relation, target, q) for q in QUANTS]))
            cells.append(("triangle", [_triangle(social, relation, target, q) for q in QUANTS]))
            for member, group in MEMBER:
                cells.append(("club", [_club(social, relation, target, q, member, group) for q in QUANTS]))
            cells.append(("lag", [_lag(social, relation, target, q) for q in RATIOS]))
        for relation in ("recom", "buy"):
            for bad in ("bad_rating", "post"):
                quants = COUNTS + RATIOS[:28]
                cells.append(("neg1", [_neg1(social, relation, bad, q) for q in quants]))
                for member, group in MEMBER:
                    cells.append(("neg2", [_neg2(social, relation, bad, q, member, group) for q in quants]))
    return cells


# Share of each family in every workload pool.
FAMILY_MIX = (("chain", 4), ("triangle", 4), ("club", 4), ("lag", 1), ("neg1", 2), ("neg2", 1))
BLOCK = sum(weight for _, weight in FAMILY_MIX)

# The paper's Q1, Q2 and Q3(p=2) over this vocabulary: always first in every pool.
PAPER_SHAPES = (
    _club("follow", "like", "album", (">=", 80.0, True), "in", "music_club"),
    _chain("follow", "recom", "Redmi_2A", ("=", 100.0, True)),
    _neg1("follow", "recom", "bad_rating", (">=", 2, False)),
)


def _family_queues() -> Dict[str, List[tuple]]:
    """Per family, its shapes in the order pools take them: round-robin over
    the family's cells, each cell's thresholds in a fixed shuffled order."""
    fixture = random.Random("pattern-cells")
    cells = pattern_cells()
    queues: Dict[str, List[tuple]] = {}
    for family, _ in FAMILY_MIX:
        columns = [fixture.sample(shapes, k=len(shapes)) for cell_family, shapes in cells if cell_family == family]
        queues[family] = [
            column[row] for row in range(max(map(len, columns))) for column in columns
            if row < len(column) and column[row] not in PAPER_SHAPES
        ]
    return queues


FAMILY_QUEUES = _family_queues()
# Whole blocks the scarcest family can fill (the first block counts the paper's three).
MAX_POOL = BLOCK * min((len(FAMILY_QUEUES[family]) + 1) // weight for family, weight in FAMILY_MIX)


def draw_pool(size: int) -> List[PatternSpec]:
    """The first *size* patterns of the query set: the paper's three, then the fixed family mix.

    The query set is a fixture like the graph: which patterns a pool of a
    given size holds, and in what order - so which of them a Zipf stream makes
    popular - does not depend on the seed.  Letting the seed pick the
    thresholds moved QueryService's miss throughput by 7% between seeds, twice
    its run-to-run movement; letting it pick the popular patterns moved the
    fleet workloads' throughput and memory by as much.
    """
    if size > MAX_POOL:
        raise ValueError(f"a pool of {size} patterns exceeds the {MAX_POOL} the families can fill")

    def spec(family, number, shape) -> PatternSpec:
        nodes, edges = shape
        return {
            "name": f"{family}-{number}", "family": family, "focus": "xo",
            "nodes": [list(node) for node in nodes],
            "edges": [[s, t, label, list(quant)] for s, t, label, quant in edges],
        }

    pool = [spec("paper", number, shape) for number, shape in enumerate(PAPER_SHAPES, 1)]
    taken = dict.fromkeys(FAMILY_QUEUES, 0)
    order = random.Random("pool-order")
    # Every block of 16 holds the family mix exactly - the first one counting
    # Q1 (a club), Q2 (a chain) and Q3 (a neg1) - so every prefix costs alike.
    owed = {"club": 1, "chain": 1, "neg1": 1}
    while len(pool) < size:
        block = []
        for family, weight in FAMILY_MIX:
            count = weight - owed.pop(family, 0)
            block += [(family, shape) for shape in FAMILY_QUEUES[family][taken[family]: taken[family] + count]]
            taken[family] += count
        order.shuffle(block)
        for family, shape in block[: size - len(pool)]:
            pool.append(spec(family, len(pool) + 1, shape))
    return pool


def respell(spec: PatternSpec, rng: random.Random, tag: str) -> PatternSpec:
    """The same query spelled differently: renamed nodes, shuffled order."""
    rename = {node: f"{tag}_{position}" for position, (node, _) in enumerate(spec["nodes"])}
    nodes = [[rename[node], label] for node, label in spec["nodes"]]
    edges = [[rename[s], rename[t], label, quant] for s, t, label, quant in spec["edges"]]
    focus_node = nodes[0]
    rest = nodes[1:]
    rng.shuffle(rest)
    rng.shuffle(edges)
    return {
        "name": f"{spec['name']}~{tag}",
        "family": spec["family"],
        "focus": rename[spec["focus"]],
        "nodes": [focus_node] + rest,
        "edges": edges,
    }


# ------------------------------------------------------------------- streams


def zipf_indices(rng: random.Random, uniques: int, length: int, exponent: float) -> List[int]:
    """*length* ranks in ``range(uniques)``, rank i drawn with weight 1/(i+1)^exponent."""
    weights = [1.0 / (rank ** exponent) for rank in range(1, uniques + 1)]
    return rng.choices(range(uniques), weights=weights, k=length)


def arrival_times(rng: random.Random, count: int, seconds: float) -> List[float]:
    """Due times of a Poisson process on ``[0, seconds)`` given *count* arrivals.

    Conditioned on its count a Poisson process is *count* sorted uniforms, so
    the offered rate is exactly ``count / seconds`` on every seed while the
    gaps stay exponential-like (bursts and lulls included).
    """
    return sorted(rng.random() * seconds for _ in range(count))


OPS_PER_BATCH = 2
CROSS_IN_TEN = 3                       # batches of every ten that cross communities


def delta_batches(seed: int, graph: SocialGraph, count: int) -> List[DeltaSpec]:
    """*count* edge-churn batches that apply cleanly when replayed in order.

    A *local* batch keeps all its operations inside one community (follows,
    friendships, likes and recommendations appear and disappear); a *cross*
    batch adds or removes ties between the ambassadors of two ring-adjacent
    communities, which is where this graph's cross-community edges live - so
    the graph's locality is the same at the end of a run as at its start.
    The generator replays its own batches on a scratch edge set: a delete
    always names an edge that exists at that point and an insert one that
    does not.
    """
    rng = random.Random(f"deltas-{seed}")
    community = graph.community
    live = set(graph.edges)
    members: Dict[str, List[List[str]]] = {
        label: [[] for _ in range(NUM_COMMUNITIES)] for label in ("person", "album", "product")
    }
    for node, label in graph.nodes:
        if label in members:
            members[label][community[node]].append(node)
    churn = {"follow": "person", "is_friend": "person", "like": "album", "recom": "product"}
    local_edges: List[List[Edge]] = [[] for _ in range(NUM_COMMUNITIES)]
    ring_edges: List[List[Edge]] = [[] for _ in range(NUM_COMMUNITIES)]   # c <-> c+1
    for edge in graph.edges:
        source, target, label = edge
        if label not in churn:
            continue
        c, other = community[source], community[target]
        if c == other:
            local_edges[c].append(edge)
        else:
            ring_edges[c if (c + 1) % NUM_COMMUNITIES == other else other].append(edge)

    def draw_insert(c: int, cross: bool):
        if cross:
            pair = [rng.choice(graph.outward[c]), rng.choice(graph.inward[(c + 1) % NUM_COMMUNITIES])]
            rng.shuffle(pair)
            return (pair[0], pair[1], rng.choice(SOCIAL))
        label = rng.choice(tuple(churn))
        return (rng.choice(members["person"][c]), rng.choice(members[churn[label]][c]), label)

    batches: List[DeltaSpec] = []
    kinds: List[bool] = []
    while len(batches) < count:
        if not kinds:                  # exactly CROSS_IN_TEN of every 10, at seeded positions
            kinds = [True] * CROSS_IN_TEN + [False] * (10 - CROSS_IN_TEN)
            rng.shuffle(kinds)
        cross = kinds.pop()
        c = rng.randrange(NUM_COMMUNITIES)
        existing = ring_edges[c] if cross else local_edges[c]
        inserts: List[Edge] = []
        deletes: List[Edge] = []
        for _ in range(OPS_PER_BATCH):
            insert = rng.random() < 0.5
            for _ in range(64):        # rejection sampling
                edge = draw_insert(c, cross) if insert else rng.choice(existing)
                if edge[0] == edge[1] or edge in inserts or edge in deletes:
                    continue
                if (edge in live) != insert:
                    (inserts if insert else deletes).append(edge)
                    break
        for edge in inserts:
            live.add(edge)
            existing.append(edge)
        for edge in deletes:
            live.discard(edge)
            existing.remove(edge)
        batches.append({
            "inserts": [list(e) for e in inserts],
            "deletes": [list(e) for e in deletes],
            "cross": cross,
        })
    return batches


# -------------------------------------------------------------------- digest


def inputs_digest(nodes, edges, patterns: Sequence[PatternSpec], deltas: Sequence[DeltaSpec],
                  stream: Sequence[object]) -> str:
    """sha256 over the sorted graph, the pattern spellings, the batches and the stream."""
    digest = hashlib.sha256()
    for part in (
        sorted(map(list, nodes)),
        sorted(map(list, edges)),
        [[spec["name"], spec["focus"], spec["nodes"], spec["edges"]] for spec in patterns],
        [[batch["inserts"], batch["deletes"]] for batch in deltas],
        list(stream),
    ):
        digest.update(json.dumps(part, sort_keys=True, separators=(",", ":")).encode("utf-8"))
    return digest.hexdigest()
