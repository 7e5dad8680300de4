//! Committed digests of every cell's flow records at the default seed
//! (see `harness::digest`). Regenerate with `--digests` and cross-check
//! before committing: the exact cells against the Fig 8 golden table,
//! the decomposed networks against `bigsim --full`.

const DIGESTS: &[(&str, &str, u64)] = &[
    ("exact_fig8", "Hadoop-1/ft-global", 0xb7320dc29467f7ee),
    ("exact_fig8", "Hadoop-1/ft-local", 0x3b320642bf614425),
    ("exact_fig8", "Hadoop-1/ft-clos-ksp", 0x637d4b5676e523c4),
    ("exact_fig8", "Hadoop-1/ft-clos-ecmp", 0x09b94aef4374bf8c),
    ("exact_fig8", "Hadoop-1/random-graph", 0x7488e6d5475ac94b),
    ("exact_fig8", "Hadoop-1/two-stage-rg", 0x88c3413fc7ab1fac),
    ("exact_fig8", "Hadoop-2/ft-global", 0xaadce77b8a0b3577),
    ("exact_fig8", "Hadoop-2/ft-local", 0x6b03126f48b762d8),
    ("exact_fig8", "Hadoop-2/ft-clos-ksp", 0xd77f44722dc5a51d),
    ("exact_fig8", "Hadoop-2/ft-clos-ecmp", 0xf44f367763ef2113),
    ("exact_fig8", "Hadoop-2/random-graph", 0xede6f77b70221bb6),
    ("exact_fig8", "Hadoop-2/two-stage-rg", 0x78e1777ac7703f50),
    ("exact_fig8", "Web/ft-global", 0x1b1eac75b7a8034c),
    ("exact_fig8", "Web/ft-local", 0x14e40cb66f0982e9),
    ("exact_fig8", "Web/ft-clos-ksp", 0x2b321f5a6f457c87),
    ("exact_fig8", "Web/ft-clos-ecmp", 0x85bf236d79b15591),
    ("exact_fig8", "Web/random-graph", 0xf2e6f98a513f7f57),
    ("exact_fig8", "Web/two-stage-rg", 0x23a6bd76f3e91d3c),
    ("exact_fig8", "Cache/ft-global", 0x9dcbcd6fec98f563),
    ("exact_fig8", "Cache/ft-local", 0xc0d4da66a3801e6a),
    ("exact_fig8", "Cache/ft-clos-ksp", 0x5161e838ac1cd01b),
    ("exact_fig8", "Cache/ft-clos-ecmp", 0xc41e3a3c837f6b70),
    ("exact_fig8", "Cache/random-graph", 0x079bd25ed8d7fd3b),
    ("exact_fig8", "Cache/two-stage-rg", 0x18126f1d8fef0534),
    ("exact_flaps", "Hadoop-1/ft-global", 0x1e8bfd875ea22be5),
    ("exact_flaps", "Hadoop-1/ft-clos-ecmp", 0x753df1f889622c35),
    ("exact_flaps", "Hadoop-2/ft-global", 0x8a9a2ec0bc75f0cd),
    ("exact_flaps", "Hadoop-2/ft-clos-ecmp", 0xa56f11e07df4411f),
    ("exact_flaps", "Web/ft-global", 0xda8133e474410952),
    ("exact_flaps", "Web/ft-clos-ecmp", 0x6731d2b814a44e03),
    ("exact_flaps", "Cache/ft-global", 0x4d46bd65d9a82786),
    ("exact_flaps", "Cache/ft-clos-ecmp", 0xce317d61417def1c),
    ("decomp_k32", "fat-tree", 0xe8c69c6d2b9174e9),
    ("decomp_k32", "flat-tree/clos", 0xe8c69c6d2b9174e9),
    ("decomp_k32", "flat-tree/local", 0x9effc511c9f7583c),
    ("decomp_k32", "flat-tree/global", 0xcf0e4bd24c1596cd),
];

/// The committed digest of one cell, if any.
pub fn digest(workload: &str, cell: &str) -> Option<u64> {
    DIGESTS
        .iter()
        .find(|(w, c, _)| *w == workload && *c == cell)
        .map(|&(_, _, d)| d)
}
