//! The benchmark's description, `BENCHMARK.json` at the repository root.

use tce_core::calib::json::Json;

const PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// The `name` of every metric in section `section` (`end_to_end` or
/// `per_layer`), with its `bound` where it has one.
///
/// # Errors
/// The file is missing or malformed.
pub fn metrics(section: &str) -> Result<Vec<(String, Option<f64>)>, String> {
    let text = std::fs::read_to_string(PATH).map_err(|e| format!("read {PATH}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{PATH}: {e}"))?;
    let Some(Json::Arr(items)) = doc.get(section) else {
        return Err(format!("{PATH}: no `{section}` list"));
    };
    items
        .iter()
        .map(|m| match m.get("name") {
            Some(Json::Str(n)) => Ok((n.clone(), m.get_f64("bound").ok())),
            _ => Err(format!("{PATH}: a `{section}` entry has no name")),
        })
        .collect()
}
