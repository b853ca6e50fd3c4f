//! `BENCH_events_per_sec.json`: one JSON object of named bins (schema in
//! the crate docs). Each bench binary replaces only its own bin.

use egm_server::json::Json;

/// The record file: `EGM_BENCH_OUT`, default `BENCH_events_per_sec.json`
/// (the name the repository benchmark and `egm_server` read).
pub fn path() -> String {
    std::env::var("EGM_BENCH_OUT").unwrap_or_else(|_| "BENCH_events_per_sec.json".to_string())
}

/// Sets bin `name` of the record at `path` to `bin`, keeping every
/// other bin, and rewrites the file sorted by bin name in the
/// [`Json::render_pretty`] layout. A missing file starts empty.
///
/// # Panics
///
/// Panics when the file exists but cannot be read, is not a JSON object
/// (rebuilding it would drop every other bin), or cannot be written.
pub fn upsert_bin(path: &str, name: &str, bin: Json) {
    let mut bins = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text) {
            Ok(Json::Obj(bins)) => bins,
            Ok(_) => panic!("bench record {path} is not a JSON object of bins"),
            Err(e) => panic!("bench record {path} is not valid JSON: {e}"),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => panic!("cannot read bench record {path}: {e}"),
    };
    bins.retain(|(key, _)| key != name);
    bins.push((name.to_string(), bin));
    bins.sort_by(|a, b| a.0.cmp(&b.0));
    std::fs::write(path, Json::Obj(bins).render_pretty()).expect("write bench record");
}

#[cfg(test)]
mod tests {
    use super::upsert_bin;
    use egm_server::json::Json;

    /// A fresh record path per test: tests run on parallel threads.
    fn scratch(name: &str) -> String {
        let dir = std::env::temp_dir().join("egm_bench_record_test");
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path.to_str().expect("utf-8 path").to_string()
    }

    fn events(n: f64) -> Json {
        Json::obj(vec![("events", Json::num(n))])
    }

    #[test]
    fn round_trips_two_bins() {
        let path = scratch("round_trip.json");
        upsert_bin(&path, "beta", Json::obj(vec![("y", Json::str("s{}\"\n"))]));
        upsert_bin(&path, "alpha", events(1.0));
        let text = std::fs::read_to_string(&path).expect("read back");
        let expected = Json::obj(vec![
            ("alpha", events(1.0)),
            ("beta", Json::obj(vec![("y", Json::str("s{}\"\n"))])),
        ]);
        assert_eq!(Json::parse(&text), Ok(expected), "sorted, strings intact");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn nested_bins_render_canonically_and_stably() {
        // The shard bin's shape: nested objects break one member per
        // line, arrays stay inline, and the file is a fixed point.
        let path = scratch("nested.json");
        let bin = Json::obj(vec![
            ("preset", Json::str("1k")),
            ("w2", Json::obj(vec![("speedup_vs_seq", Json::num(1.5))])),
            (
                "per_shard_events",
                Json::Arr(vec![Json::num(1.0), Json::num(2.0)]),
            ),
        ]);
        upsert_bin(&path, "shard", bin);
        let text = std::fs::read_to_string(&path).expect("read back");
        let expected = "{\n  \"shard\": {\n    \"preset\": \"1k\",\n    \"w2\": {\n      \
                        \"speedup_vs_seq\": 1.5\n    },\n    \
                        \"per_shard_events\": [1, 2]\n  }\n}\n";
        assert_eq!(text, expected);
        let again = Json::parse(&text).expect("valid").render_pretty();
        assert_eq!(again, text, "render is a fixed point");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "is not valid JSON")]
    fn a_corrupt_record_is_refused_not_rebuilt() {
        let path = scratch("corrupt.json");
        std::fs::write(&path, "{\"scale\": {\"events\": 1},").expect("write");
        upsert_bin(&path, "shard", events(2.0));
    }

    #[test]
    fn upsert_replaces_only_its_bin() {
        let path = scratch("upsert.json");
        upsert_bin(&path, "shard_events_per_sec_1k", events(1.0));
        upsert_bin(&path, "scale_events_per_sec_1k", events(2.0));
        upsert_bin(&path, "shard_events_per_sec_1k", events(3.0));

        let text = std::fs::read_to_string(&path).expect("read back");
        let expected = Json::obj(vec![
            ("scale_events_per_sec_1k", events(2.0)),
            ("shard_events_per_sec_1k", events(3.0)),
        ]);
        assert_eq!(Json::parse(&text), Ok(expected));
        let _ = std::fs::remove_file(&path);
    }
}
