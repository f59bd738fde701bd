//! The committed BENCH files are renderings of their typed documents:
//! each parses through `emst_analysis::bench_doc`, renders back byte for
//! byte, and passes its schema's invariant check. A truncated file is a
//! parse error, not a short document.

use energy_mst::analysis::bench_doc::{
    self, AwakeDoc, ChurnDoc, CoreDoc, DocError, FaultsDoc, ServiceDoc,
};
use std::path::PathBuf;

fn read(file: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn round_trip<T>(
    file: &str,
    schema: &str,
    parse: fn(&str) -> Result<T, DocError>,
    render: fn(&T) -> String,
) {
    let text = read(file);
    let doc = parse(&text).unwrap_or_else(|e| panic!("{file}: {e}"));
    assert_eq!(render(&doc), text, "{file}: render(parse(text)) drifted");
    assert_eq!(bench_doc::check(&text), Ok(schema), "{file}");
}

#[test]
fn committed_bench_files_round_trip_and_check() {
    round_trip(
        "BENCH_core.json",
        CoreDoc::SCHEMA,
        CoreDoc::parse,
        CoreDoc::render,
    );
    round_trip(
        "BENCH_faults.json",
        FaultsDoc::SCHEMA,
        FaultsDoc::parse,
        FaultsDoc::render,
    );
    round_trip(
        "BENCH_churn.json",
        ChurnDoc::SCHEMA,
        ChurnDoc::parse,
        ChurnDoc::render,
    );
    round_trip(
        "BENCH_awake.json",
        AwakeDoc::SCHEMA,
        AwakeDoc::parse,
        AwakeDoc::render,
    );
    round_trip(
        "BENCH_service.json",
        ServiceDoc::SCHEMA,
        ServiceDoc::parse,
        ServiceDoc::render,
    );
}

#[test]
fn truncated_bench_files_fail_to_parse() {
    for (file, lines) in [("BENCH_churn.json", 9), ("BENCH_awake.json", 12)] {
        let text = read(file);
        let head: Vec<&str> = text.lines().take(lines).collect();
        let head = head.join("\n") + "\n";
        assert!(
            head.len() < text.len(),
            "{file} has more than {lines} lines"
        );
        assert!(
            matches!(bench_doc::check(&head), Err(DocError::Json(_))),
            "{file}: the first {lines} lines parsed"
        );
    }
}
