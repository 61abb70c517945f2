"""A YAGO2-like synthetic knowledge graph.

The paper's knowledge-graph experiments use YAGO2 (1.99M nodes of 13 types,
5.65M typed links).  As with Pokec, the real knowledge base is unavailable
offline, so this generator produces a scaled-down graph with the entity and
relation vocabulary the paper's patterns ``Q4``/``Q5`` and rule ``R7`` query:

* ``person`` nodes, some of whom are professors (``is_a → prof``) and some of
  whom hold doctorates (``is_a → PhD``);
* ``country`` nodes that persons are ``in`` (affiliation) or ``citizen_of``;
* advisor relations ``advised`` from a professor to each of their former
  students, some of whom are professors themselves;
* ``prize`` nodes professors have ``won`` and ``university`` nodes they
  ``graduated`` from.

Planted cohorts guarantee non-trivial answers: a group of UK professors
without a doctorate who advised at least ``p`` students that are UK professors
(``Q4``), their non-UK counterparts (``Q5``), and US prize-winning professors
with at least four graduated students of whom at least one is a foreign
citizen (``R7``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.graph.digraph import PropertyGraph
from repro.utils.rng import SeedLike, ensure_rng

__all__ = ["YagoConfig", "yago_like_graph"]


@dataclass(frozen=True)
class YagoConfig:
    """Size and density knobs of the YAGO2-like generator."""

    num_persons: int = 260
    num_countries: int = 6
    num_universities: int = 10
    num_prizes: int = 6
    professor_fraction: float = 0.35
    phd_fraction: float = 0.4
    students_per_professor: int = 4
    planted_professors: int = 10
    seed: SeedLike = 11


def yago_like_graph(config: YagoConfig = YagoConfig()) -> PropertyGraph:
    """Generate a YAGO2-like knowledge graph according to *config*."""
    rng = ensure_rng(config.seed)
    graph = PropertyGraph("yago-like")

    persons = [f"p{i}" for i in range(config.num_persons)]
    for person in persons:
        graph.add_node(person, "person")
    # The first two countries are the named constants the paper's patterns
    # refer to ("UK" in Q4/Q5, the US in R7); the rest are generic countries.
    countries = ["UK", "USA"] + [f"country{i}" for i in range(max(0, config.num_countries - 2))]
    for country in countries:
        label = country if country in ("UK", "USA") else "country"
        graph.add_node(country, label)
    universities = [f"univ{i}" for i in range(config.num_universities)]
    for university in universities:
        graph.add_node(university, "university")
    prizes = [f"prize{i}" for i in range(config.num_prizes)]
    for prize in prizes:
        graph.add_node(prize, "prize")
    graph.add_node("prof", "prof")
    graph.add_node("PhD", "PhD")

    uk = "UK"
    usa = "USA"

    professors: List[str] = []
    for person in persons:
        country = rng.choice(countries)
        graph.add_edge(person, country, "citizen_of")
        graph.add_edge(person, rng.choice(universities), "graduated")
        if rng.random() < config.professor_fraction:
            professors.append(person)
            graph.add_edge(person, "prof", "is_a")
            graph.add_edge(person, rng.choice(countries), "in")
        if rng.random() < config.phd_fraction:
            graph.add_edge(person, "PhD", "is_a")
        if rng.random() < 0.15:
            graph.add_edge(person, rng.choice(prizes), "won")

    # Background advisor relations.
    for professor in professors:
        students = rng.sample(persons, min(config.students_per_professor, len(persons)))
        for student in students:
            if student != professor:
                graph.add_edge(professor, student, "advised")

    planted = min(config.planted_professors, len(professors))

    # --- cohort for Q4: UK professors without a PhD who advised >= p
    #     students that are UK professors ----------------------------------
    q4_cohort = professors[:planted]
    for index, professor in enumerate(q4_cohort):
        graph.add_edge(professor, uk, "in")
        if graph.has_edge(professor, "PhD", "is_a"):
            graph.remove_edge(professor, "PhD", "is_a")
        proteges = professors[planted + (index * 3) % max(1, len(professors) - planted):]
        proteges = [p for p in proteges if p != professor][:3]
        for protege in proteges:
            graph.add_edge(professor, protege, "advised")
            graph.add_edge(protege, "prof", "is_a")
            graph.add_edge(protege, uk, "in")

    # --- cohort for Q5: non-UK professors whose advisees are professors
    #     without a PhD ------------------------------------------------------
    q5_cohort = professors[planted : 2 * planted]
    for professor in q5_cohort:
        if graph.has_edge(professor, uk, "in"):
            graph.remove_edge(professor, uk, "in")
        graph.add_edge(professor, usa, "in")
        # Sorted, not set order: the cohort must not depend on PYTHONHASHSEED.
        for protege in sorted(graph.successors(professor, "advised"))[:2]:
            graph.add_edge(protege, "prof", "is_a")
            if graph.has_edge(protege, "PhD", "is_a"):
                graph.remove_edge(protege, "PhD", "is_a")

    # --- cohort for R7: US professors with >= 2 prizes and >= 4 graduated
    #     students, at least one a foreign citizen ---------------------------
    r7_cohort = professors[2 * planted : 3 * planted]
    for professor in r7_cohort:
        graph.add_edge(professor, usa, "in")
        graph.add_edge(professor, usa, "citizen_of")
        for prize in prizes[:2]:
            graph.add_edge(professor, prize, "won")
        students = rng.sample(persons, 4)
        for student_index, student in enumerate(students):
            if student == professor:
                continue
            graph.add_edge(professor, student, "advised")
            if student_index == 0:
                foreign = countries[-1]
                if graph.has_edge(student, usa, "citizen_of"):
                    graph.remove_edge(student, usa, "citizen_of")
                graph.add_edge(student, foreign, "citizen_of")

    return graph
