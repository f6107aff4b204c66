"""Benchmark workloads: a fixed catalog of CLI scenarios and the seeded
op streams drawn from it.

Every scenario the benchmark can run is a variant of one catalog class,
and `reference.json` holds the expected output of every variant, so any
seed yields inputs whose outputs can be checked.  A class fixes the
cost-relevant shape (roster, cutoff, time slice); its variants differ only
in inputs that leave the cost alone (in-state, field coefficients, roster
order).  The seed picks the variant at every visit of a class, so every
run of a workload executes the same shapes in the same order.
"""

import random
from dataclasses import dataclass

VARIANTS = 4


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `toyqft <command> --scenario <file>`."""

    key: str
    command: str
    scenario: dict


def _shell_size(mass, r):
    """Number of integer 4-momenta of the given mass with 0 < p0 <= r;
    the size of that mass block in `toyqft.build_roster`."""
    return sum(
        1
        for p0 in range(1, r + 1)
        for p1 in range(-p0, p0 + 1)
        for p2 in range(-p0, p0 + 1)
        for p3 in range(-p0, p0 + 1)
        if p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3 == mass * mass
    )


def _scatter_class(m1, m2, r, s, x0, stats):
    """Variants of one scatter shape: in-states with one particle in each
    mass block, spread over the blocks by a fixed stride."""
    n1, n2 = _shell_size(m1, r), _shell_size(m2, r)
    pairs = []
    for v in range(n1 * n2):
        pair = ((v * 5) % n1, n1 + (v * 7) % n2)
        if pair not in pairs:
            pairs.append(pair)
        if len(pairs) == VARIANTS:
            break
    names = {"boson": "b", "fermion": "f"}
    tag = f"scatter/{''.join(names[t] for t in stats)}_m{m1}{m2}_r{r}_s{s}_x{x0}"
    return [
        Op(
            f"{tag}/in{a}-{b}",
            "scatter",
            {
                "mass1": m1,
                "mass2": m2,
                "r": r,
                "cutoff_s": s,
                "x0": x0,
                "statistics": list(stats),
                "in_state": {"modes": [[a, 1], [b, 1]]},
            },
        )
        for a, b in pairs
    ]


def _mixed_roster(rng, fermions, bosons):
    """Fermions of distinct masses and massless bosons, in seeded order.

    Equal-mass fermions are left out: their exchange signs depend on how
    species are identified, which is expected to change.
    """
    entries = [
        {"label": f"f{i}", "statistics": "fermion", "mass": i + 1}
        for i in range(fermions)
    ] + [{"label": f"b{i}", "statistics": "boson"} for i in range(bosons)]
    rng.shuffle(entries)
    return entries


def _verify_class(fermions, bosons, s):
    tag = f"verify/f{fermions}b{bosons}_s{s}"
    return [
        Op(
            f"{tag}/v{v}",
            "verify",
            {
                "roster": _mixed_roster(random.Random(f"{tag}/{v}"), fermions, bosons),
                "cutoff_s": s,
            },
        )
        for v in range(VARIANTS)
    ]


def _field(rng, modes, terms):
    def coefficient():
        return round(rng.uniform(-1.5, 1.5), 3)

    return [
        {"mode": m, "alpha": [coefficient(), coefficient()]}
        for m in sorted(rng.sample(range(modes), terms))
    ]


def _spectrum_class(fermions, bosons, s, form):
    """form is 'field', 'field2' (symmetrized product) or 'self'."""
    tag = f"spectrum/{form}_f{fermions}b{bosons}_s{s}"
    ops = []
    for v in range(VARIANTS):
        rng = random.Random(f"{tag}/{v}")
        modes = fermions + bosons
        scenario = {
            "roster": _mixed_roster(rng, fermions, bosons),
            "cutoff_s": s,
            "field": _field(rng, modes, 2),
        }
        if form == "field2":
            scenario["field2"] = _field(rng, modes, 2)
        elif form == "self":
            scenario["self_interaction"] = True
        ops.append(Op(f"{tag}/v{v}", "spectrum", scenario))
    return ops


BB, FB, BF = ("boson", "boson"), ("fermion", "boson"), ("boson", "fermion")

CLASSES = {
    "wide": _scatter_class(1, 1, 3, 2, 1, BB),
    "deep": _scatter_class(1, 1, 2, 3, 0, BB),
    "sc_bb_r1_s2_x0": _scatter_class(1, 1, 1, 2, 0, BB),
    "sc_bb_r1_s3_x1": _scatter_class(1, 1, 1, 3, 1, BB),
    "sc_bb_r1_s2_x2": _scatter_class(1, 1, 1, 2, 2, BB),
    "sc_bb_m12_r2_s2_x1": _scatter_class(1, 2, 2, 2, 1, BB),
    "sc_fb_m12_r2_s2_x1": _scatter_class(1, 2, 2, 2, 1, FB),
    "sc_bf_m21_r2_s2_x2": _scatter_class(2, 1, 2, 2, 2, BF),
    "sc_fb_m12_r2_s3_x0": _scatter_class(1, 2, 2, 3, 0, FB),
    "sc_bb_r2_s2_x0": _scatter_class(1, 1, 2, 2, 0, BB),
    "sc_bb_r2_s2_x1": _scatter_class(1, 1, 2, 2, 1, BB),
    "sc_bb_r2_s2_x2": _scatter_class(1, 1, 2, 2, 2, BB),
    "vf_f2b2_s2": _verify_class(2, 2, 2),
    "vf_f3b2_s3": _verify_class(3, 2, 3),
    "vf_f2b4_s3": _verify_class(2, 4, 3),
    "sp_field_f2b2_s3": _spectrum_class(2, 2, 3, "field"),
    "sp_field2_f3b3_s3": _spectrum_class(3, 3, 3, "field2"),
    "sp_self_f2b4_s3": _spectrum_class(2, 4, 3, "self"),
}

# Class -> occurrences per round; a run is at least one round.
# scatter_deep's op time swings ~10% from op to op on a shared host, so
# its round holds three ops and op_p50_s is their median.  mix_small
# repeats its cheap classes so that small ops are most of the stream and
# a run has enough samples for a 90th percentile.
WORKLOADS = {
    "scatter_wide": {"wide": 1},
    "scatter_deep": {"deep": 3},
    "mix_small": {
        "sc_bb_r1_s2_x0": 3,
        "sc_bb_r1_s3_x1": 3,
        "sc_bb_r1_s2_x2": 3,
        "sc_bb_m12_r2_s2_x1": 3,
        "sc_fb_m12_r2_s2_x1": 3,
        "sc_bf_m21_r2_s2_x2": 1,
        "sc_fb_m12_r2_s3_x0": 1,
        "sc_bb_r2_s2_x0": 1,
        "sc_bb_r2_s2_x1": 1,
        "sc_bb_r2_s2_x2": 1,
        "vf_f2b2_s2": 3,
        "vf_f3b2_s3": 3,
        "vf_f2b4_s3": 3,
        "sp_field_f2b2_s3": 3,
        "sp_field2_f3b3_s3": 3,
        "sp_self_f2b4_s3": 3,
    },
}

# The same pipelines at sizes that take milliseconds, for the self-test.
TINY_WORKLOADS = {
    "scatter_wide": {"sc_bb_r1_s3_x1": 1},
    "scatter_deep": {"sc_bb_r1_s2_x0": 1},
    "mix_small": {
        "sc_fb_m12_r2_s2_x1": 1,
        "vf_f2b2_s2": 1,
        "sp_field2_f3b3_s3": 1,
        "sp_self_f2b4_s3": 1,
    },
}


def rounds(spec, seed):
    """Endless seeded stream of rounds.  A round visits the classes in a
    fixed interleaved order, each as often as its weight says, and the
    seed picks the variant at every visit.  The order is fixed because
    op cost depends on what ran before it (allocator state), which a
    seeded order would turn into a run-to-run difference."""
    rng = random.Random(seed)
    order = [
        name
        for visit in range(max(spec.values()))
        for name, weight in spec.items()
        if visit < weight
    ]
    while True:
        yield [rng.choice(CLASSES[name]) for name in order]
