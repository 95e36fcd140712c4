//! With the trace collector never enabled, a closed item ships nothing
//! and a named lane is not recorded. This is its own test binary, so no
//! other test in the process can have enabled the collector first.

use tcpa_obs::{begin_item, end_item, event, trace, EventKind};

#[test]
fn a_disabled_collector_keeps_no_item_and_no_lane() {
    trace::set_lane("worker-7");
    begin_item("off.pcap", 0, false);
    tcpa_obs::time("stage.trace_off", || ());
    event(EventKind::Info, "note", "kept nowhere");
    assert!(end_item("analyzed").is_none(), "no audit asked for");
    let items = trace::drain();
    assert!(items.is_empty(), "{items:?}");

    let mut doc = Vec::new();
    trace::write_chrome(&items, &mut doc).expect("write to a Vec");
    let doc = String::from_utf8(doc).expect("UTF-8 document");
    assert!(doc.contains("\"process_name\""), "{doc}");
    assert!(!doc.contains("thread_name"), "{doc}");
    assert!(!doc.contains("worker-7"), "{doc}");
}
