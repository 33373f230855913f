//! Property tests for the storage substrate: slotted pages and heap files
//! against reference models under arbitrary operation sequences.

use proptest::prelude::*;

use procdb_storage::{slotted, HeapFile, Pager, PagerConfig};

#[derive(Debug, Clone)]
enum SlotOp {
    Insert(Vec<u8>),
    Delete(usize),
    Update(usize, Vec<u8>),
}

fn slot_op() -> impl Strategy<Value = SlotOp> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..60).prop_map(SlotOp::Insert),
        (0usize..32).prop_map(SlotOp::Delete),
        ((0usize..32), proptest::collection::vec(any::<u8>(), 0..60))
            .prop_map(|(i, v)| SlotOp::Update(i, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A slotted page agrees with a `Vec<Option<Vec<u8>>>` model keyed by
    /// slot number, under arbitrary insert/delete/update sequences.
    #[test]
    fn slotted_page_matches_model(ops in proptest::collection::vec(slot_op(), 1..60)) {
        let mut page = vec![0u8; 512];
        slotted::init(&mut page);
        // model[slot] = live record bytes.
        let mut model: Vec<Option<Vec<u8>>> = Vec::new();
        for op in ops {
            match op {
                SlotOp::Insert(rec) => {
                    if let Some(slot) = slotted::insert(&mut page, &rec) {
                        let slot = slot as usize;
                        if slot == model.len() {
                            model.push(Some(rec));
                        } else {
                            prop_assert!(model[slot].is_none(), "reused a live slot");
                            model[slot] = Some(rec);
                        }
                    }
                }
                SlotOp::Delete(i) => {
                    let expect = model.get(i).map(|s| s.is_some()).unwrap_or(false);
                    let got = slotted::delete(&mut page, i as u16);
                    prop_assert_eq!(got, expect);
                    if expect {
                        model[i] = None;
                    }
                }
                SlotOp::Update(i, rec) => {
                    let fits = model
                        .get(i)
                        .and_then(|s| s.as_ref())
                        .map(|old| old.len() == rec.len())
                        .unwrap_or(false);
                    let got = slotted::update_in_place(&mut page, i as u16, &rec);
                    prop_assert_eq!(got, fits);
                    if fits {
                        model[i] = Some(rec);
                    }
                }
            }
            // Full-state agreement after every step.
            for (slot, expect) in model.iter().enumerate() {
                let got = slotted::get(&page, slot as u16).map(|r| r.to_vec());
                prop_assert_eq!(&got, expect, "slot {} diverged", slot);
            }
        }
    }

    /// Heap files preserve exactly the multiset of inserted-and-not-
    /// deleted records, with stable rids, under arbitrary interleavings.
    #[test]
    fn heap_matches_model(
        ops in proptest::collection::vec(
            prop_oneof![
                proptest::collection::vec(any::<u8>(), 1..80).prop_map(Some),
                Just(None), // delete a random live record
            ],
            1..80,
        ),
        seed in any::<u64>(),
    ) {
        check_heap_matches_model(ops, seed)?;
    }

    /// `rewrite` always leaves the file holding exactly the given records.
    #[test]
    fn heap_rewrite_is_exact(
        first in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 0..40),
        second in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..60), 0..40),
    ) {
        let pager = Pager::new(PagerConfig {
            page_size: 256,
            buffer_capacity: 64,
            mode: procdb_storage::AccountingMode::Logical,
        });
        let mut heap = HeapFile::create(pager);
        heap.rewrite(first.iter().map(Vec::as_slice)).unwrap();
        heap.rewrite(second.iter().map(Vec::as_slice)).unwrap();
        let mut scanned: Vec<Vec<u8>> = heap
            .scan_all()
            .unwrap()
            .into_iter()
            .map(|(_, r)| r)
            .collect();
        let mut expect = second.clone();
        scanned.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(scanned, expect);
    }
}

/// The body of `heap_matches_model`: insert `Some(rec)`, delete a
/// seeded-random live record on `None`, then compare with the model.
fn check_heap_matches_model(ops: Vec<Option<Vec<u8>>>, seed: u64) -> TestCaseResult {
    let pager = Pager::new(PagerConfig {
        page_size: 256,
        buffer_capacity: 64,
        mode: procdb_storage::AccountingMode::Logical,
    });
    let mut heap = HeapFile::create(pager);
    let mut live: Vec<(procdb_storage::Rid, Vec<u8>)> = Vec::new();
    let mut rng = seed;
    for op in ops {
        match op {
            Some(rec) => {
                let rid = heap.insert(&rec).unwrap();
                live.push((rid, rec));
            }
            None if !live.is_empty() => {
                rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
                let idx = (rng >> 33) as usize % live.len();
                let (rid, _) = live.swap_remove(idx);
                heap.delete(rid).unwrap();
            }
            None => {}
        }
    }
    prop_assert_eq!(heap.len() as usize, live.len());
    // Every live rid resolves to its record.
    for (rid, rec) in &live {
        prop_assert_eq!(&heap.get(*rid).unwrap(), rec);
    }
    // And the scan sees exactly the live multiset.
    let mut scanned: Vec<Vec<u8>> = heap
        .scan_all()
        .unwrap()
        .into_iter()
        .map(|(_, r)| r)
        .collect();
    let mut expect: Vec<Vec<u8>> = live.iter().map(|(_, r)| r.clone()).collect();
    scanned.sort_unstable();
    expect.sort_unstable();
    prop_assert_eq!(scanned, expect);
    Ok(())
}

/// A case `heap_matches_model` once failed on, replayed on every run.
#[test]
fn heap_matches_model_saved_case() {
    let ops = vec![
        Some(vec![0]),
        Some(vec![0]),
        Some(vec![0]),
        Some(vec![
            4, 81, 169, 179, 232, 255, 75, 70, 219, 80, 79, 142, 198, 222, 187, 119, 60, 176, 17,
            223, 243, 80, 183, 99, 154, 17, 55, 128, 85, 20, 158, 191, 124, 126, 70, 26, 197, 163,
            88, 95, 204, 107, 72, 143, 48, 139, 94, 108, 37, 226, 42, 224, 236, 126, 21, 81, 223,
            168, 159, 248, 24, 196,
        ]),
        None,
        Some(vec![
            236, 226, 59, 255, 207, 174, 213, 123, 134, 2, 101, 173, 56, 17, 58, 252, 9, 167, 70,
            189,
        ]),
        None,
        None,
        None,
        Some(vec![
            188, 216, 90, 167, 22, 241, 142, 73, 86, 234, 36, 207, 31, 235, 62, 229, 22, 179, 138,
            240, 27, 117, 46, 64, 244, 83, 255, 201, 68, 65, 131, 33, 39, 250, 249, 102, 181, 246,
        ]),
        None,
        None,
        Some(vec![
            232, 45, 122, 140, 31, 210, 213, 171, 229, 2, 150, 126, 141, 244, 158, 47, 67, 160,
            100, 189, 22, 236, 167, 166, 128, 216, 193, 223, 51, 42, 81, 154, 111, 9, 83, 196, 58,
            205, 159, 118, 215, 8, 50, 204, 238, 162, 12, 9, 7, 141, 212, 195, 230, 122, 1, 128,
            150, 114, 116, 188, 199, 120, 39, 62, 241, 246, 55, 8, 62, 193, 229, 57, 165,
        ]),
        Some(vec![
            66, 191, 124, 237, 241, 23, 26, 219, 238, 133, 31, 169, 205, 29, 136, 15, 64, 252, 89,
            181, 180, 184, 231, 105, 42, 91, 174, 211, 79, 59, 53, 86, 197, 18, 115, 81, 120, 191,
        ]),
        Some(vec![228, 86, 80]),
        None,
        Some(vec![
            70, 139, 10, 12, 152, 231, 54, 102, 104, 175, 80, 236, 195, 148, 117, 190, 232, 193,
            80, 34, 6, 219, 253, 0, 200, 248, 186, 50, 68, 210, 205, 80, 157, 25, 228, 83, 138,
            201, 201, 218, 106, 102, 133, 69, 156, 102, 199, 198, 2, 60, 181, 2, 205, 63, 119, 32,
            254, 213, 33, 216, 147, 255, 105, 74, 155, 9, 14, 49, 230, 148, 48, 237, 219,
        ]),
        Some(vec![
            102, 158, 212, 238, 196, 199, 70, 22, 222, 203, 170, 89, 134, 176, 32, 27, 18, 65, 213,
            233, 12, 128, 64, 138, 49, 96, 50, 135, 65, 206, 113, 204, 130, 240, 129, 188, 104, 84,
            218, 107, 44, 0, 150, 78, 64, 176, 235, 239, 116, 239, 10, 77, 202, 128, 89, 56, 242,
            20, 43, 90, 125, 191, 160, 156, 222, 166, 109, 238, 214, 12,
        ]),
    ];
    check_heap_matches_model(ops, 11_907_912_953_308_585_681).unwrap();
}
