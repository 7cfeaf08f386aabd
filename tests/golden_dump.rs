//! Bit-identity as a test: every `golden_dump` cell's statistics must
//! hash to the digest recorded before the last simulator-kernel change.
//! A kernel refactor that alters any simulated statistic fails here.
//!
//! The digest is FNV-1a over `format!("{stats:?}")`, the line
//! `examples/golden_dump.rs` prints. A change that means to alter the
//! model re-records the digests from that example's output.

#[path = "golden/cells.rs"]
mod golden;

use imp::common::fnv1a;

const DIGESTS: [(&str, u64); 18] = [
    ("spmv/none", 0xe4a1_5ddd_1a92_1490),
    ("spmv/stream", 0xb1a4_1497_1462_80c5),
    ("spmv/imp", 0xd04b_32e0_e8a2_71e4),
    ("pagerank/none", 0xf5cd_f0fd_e8ef_5b36),
    ("pagerank/stream", 0x8693_0470_be4f_34f3),
    ("pagerank/imp", 0x281c_6045_e016_7b73),
    ("graph500/none", 0xa852_2e1d_6223_5e87),
    ("graph500/stream", 0xe9ef_fb96_0907_6932),
    ("graph500/imp", 0xaeb6_2ae3_4bb5_7d3b),
    ("spmv/imp/ooo", 0x9a47_31dc_3d9f_a487),
    ("pagerank/imp/tlb", 0xce33_34dc_472b_39f8),
    ("pagerank/imp/l2tlb-walk", 0x6712_e795_9988_a9c1),
    ("lsh/imp/partial", 0x3487_7f83_2276_a73b),
    ("spmv/imp/mixed-huge", 0x6c3c_abe6_c2bb_a2b6),
    ("graph500/imp/huge-nonblocking", 0xc181_bf88_164f_6e17),
    ("spmv/imp/tree-tlb", 0x624a_a0ad_6302_3755),
    ("spmv/perfpref", 0x667f_81b6_ab0b_0f0e),
    ("spmv/perfpref/lead256", 0x3834_b583_8bcb_be3d),
];

#[test]
fn golden_cells_match_their_recorded_digests() {
    let cells = golden::cells();
    let names: Vec<&str> = cells.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = DIGESTS.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, pinned, "every cell needs exactly one digest");
    let mismatches: Vec<String> = cells
        .iter()
        .zip(DIGESTS)
        .filter_map(|((name, sim), (_, want))| {
            let stats = sim.run().expect("golden cell runs");
            let got = fnv1a(format!("{stats:?}").as_bytes());
            (got != want).then(|| format!("{name}: {got:#018x}, recorded {want:#018x}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "statistics changed:\n{}",
        mismatches.join("\n")
    );
}
