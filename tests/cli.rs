//! The default `apls` run places a circuit named with `--circuit` or read
//! from a `.apls` file with `--file`, and both give the same report.

use analog_layout_synthesis::service::json::Json;
use std::path::Path;
use std::process::{Command, Output};

fn apls(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_apls")).args(args).output().expect("apls runs")
}

/// The report with every timing-derived field nulled, the form in which a
/// report is a pure function of (circuit, config, seed).
fn deterministic_report(path: &Path) -> Json {
    fn strip(value: &mut Json) {
        match value {
            Json::Obj(fields) => {
                for (key, v) in fields {
                    if key.ends_with("_ms") || key.ends_with("moves_per_sec") {
                        *v = Json::Null;
                    } else {
                        strip(v);
                    }
                }
            }
            Json::Arr(items) => items.iter_mut().for_each(strip),
            _ => {}
        }
    }
    let text = std::fs::read_to_string(path).expect("report written");
    let mut report = Json::parse(&text).expect("report parses");
    strip(&mut report);
    report
}

#[test]
fn file_places_the_same_report_as_the_bundled_circuit() {
    let dir = std::env::temp_dir().join(format!("apls-cli-file-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let by_name = dir.join("by_name.json");
    let by_file = dir.join("by_file.json");
    let apls_file = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/circuits/folded_cascode.apls");
    let common = ["--fast", "--restarts", "2", "--seed", "4", "--threads", "1", "--json"];

    let out =
        apls(&[&["-c", "folded_cascode"][..], &common, &[by_name.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = apls(&[&["--file", apls_file][..], &common, &[by_file.to_str().unwrap()]].concat());
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let report = deterministic_report(&by_name);
    assert_eq!(report.get("circuit").and_then(Json::as_str), Some("folded_cascode"));
    assert_eq!(report, deterministic_report(&by_file));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn file_and_circuit_are_mutually_exclusive() {
    let apls_file = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/circuits/buffer.apls");
    let out = apls(&["-c", "buffer", "--file", apls_file, "--fast"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("--circuit and --file are mutually exclusive"));
}

#[test]
fn unreadable_file_is_a_cli_error() {
    let missing =
        std::env::temp_dir().join(format!("apls-cli-missing-{}.apls", std::process::id()));
    let out = apls(&["--file", missing.to_str().unwrap(), "--fast"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}
