//! Dispatcher-level tests that avoid the expensive synthesis sweeps.

use super::*;

#[test]
fn unknown_id_yields_nothing() {
    assert!(run("fig99", Effort::Quick).is_empty());
}

#[test]
fn fig1_runs_standalone() {
    let artifacts = run("fig1", Effort::Quick);
    assert_eq!(artifacts.len(), 1);
    assert_eq!(artifacts[0].id(), "fig1");
}

#[test]
fn all_ids_are_dispatchable() {
    // Every advertised id must be recognized by the dispatcher. (Running
    // them all is the experiments binary's job; here we only check the
    // cheap one executes and the id list is consistent.)
    for id in ALL_IDS {
        assert!(
            matches!(*id, "fig1")
                || [
                    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "tab1",
                    "fig17", "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "runtime",
                ]
                .contains(id),
            "unknown id in ALL_IDS: {id}"
        );
    }
}
