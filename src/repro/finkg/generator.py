"""Synthetic shareholding-graph generator.

The proprietary source of the paper's extensional component (the Italian
Chambers of Commerce registry, Section 2.1) is replaced by a
configurable generator reproducing the same topology:

- a **scale-free** degree structure: the number of companies a
  shareholder invests in follows a truncated Zipf law, and investors are
  chosen by preferential attachment, so "several nodes in the network
  act as hubs";
- **tiny strongly connected components** (cross-shareholding cycles are
  rare: the paper reports 11.96M SCCs over 11.97M nodes, largest 1.9k)
  — controlled by ``cycle_probability``;
- **one giant weakly connected component** plus a sea of small ones
  (largest WCC > 6M of 11.97M; 1.3M WCCs of average size 9) —
  controlled by ``giant_fraction``: companies outside the giant pool
  form small isolated clusters;
- share percentages per company sum to at most 1, with a small float
  left unassigned (dispersed retail ownership), which also keeps the
  integrated-ownership series convergent in the presence of cycles.

Two outputs are offered: :func:`generate_shareholding_graph` builds the
flat "shareholding graph" of Section 2.1 (nodes are shareholders, edges
are OWNS with a ``percentage``) used for the statistics table, while
:func:`generate_company_kg` builds the fully typed Company KG instance
(PhysicalPerson / Business / Share nodes, HOLDS / BELONGS_TO edges)
conforming to the Figure 4 schema, used by the reasoning pipelines.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph import make_graph

#: Plausible Italian surnames for the family-detection programs.
_SURNAMES = (
    "Rossi", "Russo", "Ferrari", "Esposito", "Bianchi", "Romano", "Colombo",
    "Ricci", "Marino", "Greco", "Bruno", "Gallo", "Conti", "DeLuca",
    "Mancini", "Costa", "Giordano", "Rizzo", "Lombardi", "Moretti",
)
_FIRST_NAMES = (
    "Alessandro", "Giulia", "Francesco", "Sofia", "Lorenzo", "Aurora",
    "Matteo", "Ginevra", "Leonardo", "Alice", "Gabriele", "Emma",
)


@dataclass(frozen=True)
class ShareholdingConfig:
    """Knobs of the generator; defaults mirror the Section 2.1 ratios."""

    companies: int = 1000
    #: persons per company (the registry has both physical and legal
    #: shareholders; the flat graph just needs shareholders).
    person_ratio: float = 1.7
    #: Zipf exponent of the investments-per-shareholder distribution.
    zipf_exponent: float = 2.1
    #: Cap on investments per shareholder (keeps tails finite at small n).
    max_investments: int = 200
    #: Mean number of shareholders per company.
    mean_shareholders: float = 2.8
    #: Probability that a company participates in a cross-ownership cycle.
    cycle_probability: float = 0.002
    #: Fraction of companies wired into the giant component.
    giant_fraction: float = 0.55
    #: Size range of the isolated clusters outside the giant pool.
    cluster_size: Tuple[int, int] = (3, 12)
    #: Fraction of capital left unassigned (dispersed ownership).
    dispersed: float = 0.05
    seed: int = 42


@dataclass
class Shareholding:
    """One ownership stake: ``owner`` holds ``percentage`` of ``company``."""

    owner: str
    company: str
    percentage: float


@dataclass
class ShareholdingData:
    """Raw generator output before graph materialization."""

    persons: List[str]
    companies: List[str]
    stakes: List[Shareholding]

    @property
    def nodes(self) -> int:
        return len(self.persons) + len(self.companies)

    @property
    def edges(self) -> int:
        return len(self.stakes)


def generate_shareholding_data(config: ShareholdingConfig) -> ShareholdingData:
    """Generate the raw shareholders/companies/stakes lists."""
    rng = random.Random(config.seed)
    n_companies = config.companies
    n_persons = max(1, int(n_companies * config.person_ratio))
    companies = [f"C{i}" for i in range(n_companies)]
    persons = [f"P{i}" for i in range(n_persons)]

    # Partition companies: the giant pool vs small isolated clusters.
    shuffled = companies[:]
    rng.shuffle(shuffled)
    giant_count = int(len(shuffled) * config.giant_fraction)
    giant_pool = shuffled[:giant_count]
    remainder = shuffled[giant_count:]
    clusters: List[List[str]] = []
    index = 0
    while index < len(remainder):
        size = rng.randint(*config.cluster_size)
        clusters.append(remainder[index:index + size])
        index += size

    person_cursor = 0

    def take_persons(count: int) -> List[str]:
        nonlocal person_cursor
        taken = []
        for _ in range(count):
            taken.append(persons[person_cursor % len(persons)])
            person_cursor += 1
        return taken

    stakes: List[Shareholding] = []

    def wire(pool_companies: Sequence[str], pool_persons: Sequence[str]) -> None:
        """Preferential-attachment wiring inside one pool."""
        if not pool_companies or not pool_persons:
            return
        # Investor multiset for preferential attachment: each stake adds
        # its owner once, so P(pick) grows with current out-degree.
        attachment: List[str] = list(pool_persons)
        # Also let companies themselves invest (legal-person shareholders).
        attachment.extend(
            rng.choice(pool_companies)
            for _ in range(max(1, len(pool_companies) // 4))
        )
        for company in pool_companies:
            k = _poisson_like(rng, config.mean_shareholders)
            if k == 0:
                continue
            owners: List[str] = []
            seen = set()
            for _ in range(k):
                owner = rng.choice(attachment)
                if owner == company or owner in seen:
                    continue
                seen.add(owner)
                owners.append(owner)
            if not owners:
                continue
            percentages = _split_capital(rng, len(owners), config.dispersed)
            for owner, percentage in zip(owners, percentages):
                stakes.append(Shareholding(owner, company, percentage))
                attachment.append(owner)  # preferential attachment
        # Occasional cross-ownership cycles.
        for company in pool_companies:
            if rng.random() < config.cycle_probability and len(pool_companies) > 2:
                other = rng.choice(pool_companies)
                if other != company:
                    stakes.append(
                        Shareholding(company, other, round(rng.uniform(0.01, 0.15), 4))
                    )
                    stakes.append(
                        Shareholding(other, company, round(rng.uniform(0.01, 0.15), 4))
                    )

    # Zipf-limited investor activity is induced by preferential
    # attachment; clusters take a few persons each, the giant pool takes
    # every remaining person so no shareholder stays isolated.
    for cluster in clusters:
        wire(cluster, take_persons(max(1, len(cluster) // 2)))
    wire(giant_pool, persons[person_cursor % len(persons):] or persons)

    # Deduplicate (owner, company) pairs by aggregation, like the registry.
    merged: Dict[Tuple[str, str], float] = {}
    for stake in stakes:
        key = (stake.owner, stake.company)
        merged[key] = merged.get(key, 0.0) + stake.percentage
    # Normalize: no company's capital may be over-assigned (cycle
    # injection can push the inbound sum past 1); cap at (1 - dispersed)
    # so the integrated-ownership series always converges.
    inbound: Dict[str, float] = {}
    for (owner, company), percentage in merged.items():
        inbound[company] = inbound.get(company, 0.0) + percentage
    cap = 1.0 - config.dispersed
    for key in list(merged):
        company = key[1]
        total = inbound[company]
        if total > cap:
            merged[key] = merged[key] * cap / total
        merged[key] = round(min(1.0, merged[key]), 6)
    data = ShareholdingData(
        persons=persons,
        companies=companies,
        stakes=[Shareholding(o, c, p) for (o, c), p in sorted(merged.items())],
    )
    return data


def _poisson_like(rng: random.Random, mean: float) -> int:
    """A cheap integer distribution with the requested mean and a heavy
    enough tail (mixture of geometric and occasional bursts)."""
    if rng.random() < 0.04:
        return int(mean * rng.uniform(3, 12))  # hub company
    # 1 + geometric: every company has at least one shareholder, as in
    # the registry; the mean still matches the configuration.
    p = 1.0 / mean
    count = 1
    while rng.random() > p and count < 64:
        count += 1
    return count


def _split_capital(rng: random.Random, parts: int, dispersed: float) -> List[float]:
    """Split (1 - dispersed) of the capital into ``parts`` random stakes."""
    cuts = sorted(rng.random() for _ in range(parts - 1))
    bounds = [0.0] + cuts + [1.0]
    total = 1.0 - dispersed
    return [
        round((bounds[i + 1] - bounds[i]) * total, 6) for i in range(parts)
    ]


def generate_shareholding_graph(
    config: Optional[ShareholdingConfig] = None,
    columnar: bool = True,
):
    """The flat Section 2.1 shareholding graph: OWNS edges with
    percentages between shareholder nodes."""
    config = config or ShareholdingConfig()
    data = generate_shareholding_data(config)
    graph = make_graph("shareholding", columnar=columnar)
    for person in data.persons:
        graph.add_node(person, "Person")
    for company in data.companies:
        graph.add_node(company, "Company")
    for stake in data.stakes:
        graph.add_edge(stake.owner, stake.company, "OWNS", percentage=stake.percentage)
    return graph


def generate_company_kg(
    config: Optional[ShareholdingConfig] = None,
    columnar: bool = True,
):
    """A typed Company KG instance conforming to the Figure 4 schema.

    Persons become PhysicalPerson nodes (with surnames for the family
    programs), companies become Business nodes, and every stake is
    reified through a Share node (HOLDS / BELONGS_TO), mirroring the
    schema's decoupled ownership design.
    """
    config = config or ShareholdingConfig()
    rng = random.Random(config.seed + 1)
    data = generate_shareholding_data(config)
    graph = make_graph("company-kg", columnar=columnar)
    for person in data.persons:
        surname = rng.choice(_SURNAMES)
        first = rng.choice(_FIRST_NAMES)
        graph.add_node(
            person,
            "PhysicalPerson",
            fiscalCode=f"FC{person}",
            name=f"{first} {surname}",
            surname=surname,
            gender=rng.choice(["female", "male"]),
        )
    for company in data.companies:
        graph.add_node(
            company,
            "Business",
            fiscalCode=f"FC{company}",
            businessName=f"{company} S.p.A.",
            legalNature="spa",
            shareholdingCapital=round(rng.uniform(1e4, 1e7), 2),
        )
    for i, stake in enumerate(data.stakes):
        share_id = f"S{i}"
        graph.add_node(
            share_id, "Share", shareId=share_id, percentage=stake.percentage
        )
        graph.add_edge(stake.owner, share_id, "HOLDS", right="ownership")
        graph.add_edge(share_id, stake.company, "BELONGS_TO")
    return graph


def stakes_as_tuples(data: ShareholdingData) -> List[Tuple[str, str, float]]:
    """(owner, company, percentage) triples, the baselines' input."""
    return [(s.owner, s.company, s.percentage) for s in data.stakes]
