//! `proclus inspect-trace` — summarize a trace directory written by
//! `proclus fit --trace-out`: manifest header, per-phase time
//! breakdown, convergence curve, and swap history. With `--diff A B`
//! it compares two runs' manifests phase by phase and counter by
//! counter instead.

use crate::args::Args;
use proclus_obs::json;
use proclus_obs::{render_env, render_manifest, Event, TraceSummary, EVENTS_FILE, MANIFEST_FILE};
use std::error::Error;
use std::io::Write;
use std::path::PathBuf;

pub const HELP: &str = "\
proclus inspect-trace — summarize a fit trace (run.json + events.jsonl)

  --input <dir>    trace directory written by `proclus fit --trace-out`
                   (required unless --diff is given)
  --events <path>  read this events.jsonl instead of <dir>/events.jsonl
  --diff <A> <B>   compare two runs instead: each a trace directory or
                   its run.json. Prints both runs' environments (cores,
                   build profile, commit), then calls, total, max and
                   share per phase and every counter, for A and B with
                   the ratio B/A; a key missing on one side shows as —
";

/// Flags of this command that take two values.
pub const PAIRS: &[&str] = &["diff"];

/// A malformed trace file: carries the offending path and line.
#[derive(Debug)]
pub struct MalformedTrace(pub String);

impl std::fmt::Display for MalformedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for MalformedTrace {}

fn read_to_string(path: &PathBuf) -> Result<String, Box<dyn Error>> {
    std::fs::read_to_string(path).map_err(|e| -> Box<dyn Error> {
        Box::new(std::io::Error::new(
            e.kind(),
            format!("{}: {e}", path.display()),
        ))
    })
}

/// Derived round-cache effectiveness: hits / (hits + recomputes) per
/// cache layer, from the `cache.*` manifest counters, then the column
/// store's full-column hits and evictions. `None` when the trace has no
/// cache counters (not a fit, or a pre-cache trace); the store's part
/// is left out for a manifest from before the store. The retired
/// cluster-row layer's counters, which older manifests carry, are
/// listed raw but not derived.
fn cache_summary(manifest: &json::Json) -> Option<String> {
    let counter = |name: &str| {
        manifest
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(json::Json::as_usize)
    };
    let layer = |label: &str, hits: &str, recomputes: &str| -> Option<String> {
        let h = counter(hits)?;
        let r = counter(recomputes)?;
        let total = h + r;
        // A 0-lookup layer has no meaningful rate: "0.0%" would read
        // as "nothing hit" when in fact nothing was ever asked.
        if total == 0 {
            return Some(format!("{label} n/a (0 lookups)"));
        }
        let pct = h as f64 * 100.0 / total as f64;
        Some(format!("{label} {h}/{total} hits ({pct:.1}%)"))
    };
    let fused = layer(
        "fused",
        "cache.fused_slot_hits",
        "cache.fused_slot_recomputes",
    )?;
    let cols = layer("columns", "cache.column_hits", "cache.column_recomputes")?;
    let mut line = format!("round cache: {fused}, {cols}");
    if let Some(full) = layer(
        "full columns",
        "cache.full_column_hits",
        "cache.full_column_recomputes",
    ) {
        line.push_str(&format!(", {full}"));
    }
    if let Some(evictions) = counter("cache.evictions") {
        line.push_str(&format!(", {evictions} evictions"));
    }
    Some(line)
}

/// Derived serving health from a `proclus serve` manifest's `serve.*`
/// counters: request volume, error split, queue pressure, and job
/// outcomes. `None` for traces that never served traffic.
fn serve_summary(manifest: &json::Json) -> Option<String> {
    let counter = |name: &str| {
        manifest
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(json::Json::as_usize)
    };
    let requests = counter("serve.requests")?;
    let c4xx = counter("serve.status_4xx").unwrap_or(0);
    let c5xx = counter("serve.status_5xx").unwrap_or(0);
    let queue_full = counter("serve.queue_full").unwrap_or(0);
    let done = counter("serve.jobs_done").unwrap_or(0);
    let failed = counter("serve.jobs_failed").unwrap_or(0);
    let protocol = counter("serve.protocol_errors").unwrap_or(0);
    Some(format!(
        "serve health: {requests} requests ({c4xx} 4xx, {c5xx} 5xx, \
         {protocol} protocol faults), {queue_full} backpressured, \
         jobs {done} done / {failed} failed"
    ))
}

/// Derived stream health from a `proclus stream` manifest's result
/// object: ingest volume, quarantine count, and rollover tallies.
/// `None` for non-streaming traces (e.g. a plain `fit`).
fn stream_summary(manifest: &json::Json) -> Option<String> {
    let result = manifest.get("result")?;
    let num = |name: &str| result.get(name).and_then(json::Json::as_usize);
    let batches = num("batches")?;
    let quarantined = num("quarantined")?;
    let promotions = num("promotions")?;
    let rollbacks = num("rollbacks")?;
    let serving = result
        .get("serving_generation")
        .and_then(json::Json::as_usize)
        .map_or_else(|| "none".to_string(), |g| format!("generation {g}"));
    Some(format!(
        "stream health: {batches} batches ({quarantined} quarantined), \
         {promotions} promoted / {rollbacks} rolled back, serving {serving}"
    ))
}

/// Read and parse the `run.json` at `path`, or inside it when `path`
/// is a directory.
fn read_manifest(path: impl Into<PathBuf>) -> Result<(PathBuf, json::Json), Box<dyn Error>> {
    let mut path = path.into();
    if path.is_dir() {
        path.push(MANIFEST_FILE);
    }
    let text = read_to_string(&path)?;
    let manifest =
        json::parse(&text).map_err(|e| MalformedTrace(format!("{}: {e}", path.display())))?;
    Ok((path, manifest))
}

/// The members of the manifest object `key`, in file order (none when
/// it is absent).
fn members<'a>(manifest: &'a json::Json, key: &str) -> &'a [(String, json::Json)] {
    match manifest.get(key) {
        Some(json::Json::Obj(members)) => members,
        _ => &[],
    }
}

/// Every key of `a`, then the keys only `b` has, each once.
fn union_keys<'a>(a: &'a [(String, json::Json)], b: &'a [(String, json::Json)]) -> Vec<&'a str> {
    let mut keys: Vec<&str> = Vec::new();
    for (k, _) in a.iter().chain(b) {
        if !keys.contains(&k.as_str()) {
            keys.push(k);
        }
    }
    keys
}

/// Width of a table's name column: its longest name, at least 8.
fn name_width(names: &[&str]) -> usize {
    names.iter().map(|n| n.chars().count()).fold(8, usize::max)
}

/// A value cell: `—` when the key is missing on that side.
fn value_cell(v: Option<f64>, decimals: usize) -> String {
    v.map_or_else(|| "—".to_string(), |v| format!("{v:.decimals$}"))
}

/// The ratio B/A: `1.00` for equal values (zero included), `n/a` when
/// only A is zero, `—` when either side is missing.
fn ratio_cell(a: Option<f64>, b: Option<f64>) -> String {
    match (a, b) {
        (Some(a), Some(b)) if a == b => "1.00".to_string(),
        (Some(a), Some(b)) if a != 0.0 => format!("{:.2}", b / a),
        (Some(_), Some(_)) => "n/a".to_string(),
        _ => "—".to_string(),
    }
}

/// One phase of a manifest: calls, total ms, max ms and share of the
/// manifest's summed phase time, in percent.
fn phase_stats(phases: &[(String, json::Json)], name: &str) -> Option<[f64; 4]> {
    let total_us = |p: &json::Json| p.get("total_us").and_then(json::Json::as_f64);
    let grand: f64 = phases.iter().filter_map(|(_, p)| total_us(p)).sum();
    let p = &phases.iter().find(|(k, _)| k == name)?.1;
    let total = total_us(p).unwrap_or(0.0);
    let share = if grand > 0.0 {
        total * 100.0 / grand
    } else {
        0.0
    };
    Some([
        p.get("count").and_then(json::Json::as_f64).unwrap_or(0.0),
        total / 1e3,
        p.get("max_us").and_then(json::Json::as_f64).unwrap_or(0.0) / 1e3,
        share,
    ])
}

/// Two manifests side by side: per phase the calls, total ms, max ms
/// and share (%), per counter its value, each for A and B with the
/// ratio B/A. Keys come in A's order, then those only B has.
fn render_diff(a: &json::Json, b: &json::Json) -> String {
    let mut out = String::new();
    let (pa, pb) = (members(a, "phases"), members(b, "phases"));
    let names = union_keys(pa, pb);
    let width = name_width(&names);
    // Per column: title, decimals, cell width.
    let columns = [
        ("calls", 0, 6),
        ("total ms", 3, 10),
        ("max ms", 3, 10),
        ("share %", 1, 6),
    ];
    let (mut titles, mut heads) = (" ".repeat(width), format!("{:<width$}", "phase"));
    for (title, _, cell) in columns {
        titles.push_str(&format!("  {title:^w$}", w = 2 * cell + 9));
        heads.push_str(&format!("  {:>cell$} {:>cell$} {:>7}", "A", "B", "B/A"));
    }
    out.push_str(titles.trim_end());
    out.push('\n');
    out.push_str(&heads);
    out.push('\n');
    for name in &names {
        let (sa, sb) = (phase_stats(pa, name), phase_stats(pb, name));
        let mut line = format!("{name:<width$}");
        for (col, (_, decimals, cell)) in columns.into_iter().enumerate() {
            let (va, vb) = (sa.map(|s| s[col]), sb.map(|s| s[col]));
            line.push_str(&format!(
                "  {:>cell$} {:>cell$} {:>7}",
                value_cell(va, decimals),
                value_cell(vb, decimals),
                ratio_cell(va, vb)
            ));
        }
        out.push_str(line.trim_end());
        out.push('\n');
    }
    let (ca, cb) = (members(a, "counters"), members(b, "counters"));
    let names = union_keys(ca, cb);
    let width = name_width(&names);
    out.push_str(&format!(
        "{:<width$}  {:>14} {:>14} {:>7}\n",
        "counter", "A", "B", "B/A"
    ));
    let value = |members: &[(String, json::Json)], name: &str| {
        members
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_f64())
    };
    for name in &names {
        let (va, vb) = (value(ca, name), value(cb, name));
        out.push_str(&format!(
            "{name:<width$}  {:>14} {:>14} {:>7}\n",
            value_cell(va, 0),
            value_cell(vb, 0),
            ratio_cell(va, vb)
        ));
    }
    out
}

/// `--diff A B`: the two manifests side by side.
fn run_diff(a: &str, b: &str, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    let (path_a, a) = read_manifest(a)?;
    let (path_b, b) = read_manifest(b)?;
    writeln!(out, "run diff: A = {}", path_a.display())?;
    writeln!(out, "          B = {}", path_b.display())?;
    // The environments first, so a diff across hosts or builds reads
    // as one before any ratio does.
    for (side, manifest) in [("A", &a), ("B", &b)] {
        let env = render_env(manifest).unwrap_or_else(|| "not recorded".into());
        writeln!(out, "env {side}: {env}")?;
    }
    write!(out, "{}", render_diff(&a, &b))?;
    Ok(())
}

/// Run the command.
pub fn run(args: &Args, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
    if let Some((a, b)) = args.get_pair("diff") {
        args.reject_unknown()?;
        return run_diff(a, b, out);
    }
    let dir = PathBuf::from(args.require("input")?);
    let events_path = args
        .get("events")
        .map_or_else(|| dir.join(EVENTS_FILE), PathBuf::from);
    args.reject_unknown()?;

    // Manifest: measurement side (timings, counters, gauges).
    let (manifest_path, manifest) = read_manifest(&dir)?;
    let rendered = render_manifest(&manifest)
        .map_err(|e| MalformedTrace(format!("{}: {e}", manifest_path.display())))?;
    write!(out, "{rendered}")?;
    if let Some(line) = cache_summary(&manifest) {
        writeln!(out, "{line}")?;
    }
    if let Some(line) = stream_summary(&manifest) {
        writeln!(out, "{line}")?;
    }
    if let Some(line) = serve_summary(&manifest) {
        writeln!(out, "{line}")?;
    }
    if let Some(json::Json::Obj(members)) = manifest.get("params") {
        let mut line = String::from("params:");
        for (key, value) in members {
            line.push_str(&format!(" {key}={value}"));
        }
        writeln!(out, "{line}")?;
    }

    // Event stream: deterministic side (convergence, swaps, refine).
    let stream = read_to_string(&events_path)?;
    let mut events = Vec::new();
    for (i, line) in stream.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = Event::parse_line(line).map_err(|e| {
            MalformedTrace(format!("{} line {}: {e}", events_path.display(), i + 1))
        })?;
        events.push(ev);
    }
    let summary = TraceSummary::from_events(&events, 0);
    write!(out, "{}", summary.render())?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proclus_core::Proclus;
    use proclus_data::SyntheticSpec;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("proclus-cli-trc-{name}-{}", std::process::id()))
    }

    /// End to end: fit with a JsonlRecorder, then inspect the directory.
    #[test]
    fn summarizes_a_real_trace() {
        let dir = tmp("e2e");
        let data = SyntheticSpec::new(300, 6, 2, 3.0).seed(9).generate();
        let rec = proclus_obs::JsonlRecorder::create(&dir).unwrap();
        let model = Proclus::new(2, 3.0)
            .seed(1)
            .restarts(2)
            .fit_traced(&data.points, &rec)
            .unwrap();
        rec.finish(
            json::Json::Obj(vec![("k".into(), json::Json::Num(2.0))]),
            json::Json::Obj(vec![(
                "objective".into(),
                json::Json::Num(model.objective()),
            )]),
        )
        .unwrap();

        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(text.contains("manifest: schema_version=1"), "{text}");
        assert!(text.contains("phase breakdown:"), "{text}");
        assert!(text.contains("algorithm: proclus"), "{text}");
        assert!(text.contains("convergence"), "{text}");
        assert!(text.contains("params: k=2"), "{text}");
        // Cache counters surface both raw and as derived hit rates.
        assert!(text.contains("cache.fused_slot_hits"), "{text}");
        assert!(text.contains("round cache: fused "), "{text}");
        assert!(text.contains(", full columns "), "{text}");
        assert!(text.contains(" evictions"), "{text}");
        assert!(text.contains("cache.peak_resident_bytes"), "{text}");
        assert!(!text.contains("cluster rows"), "{text}");
        // The manifest names the environment it ran in.
        assert!(text.contains("env: nproc="), "{text}");
    }

    /// A manifest without cache counters (a pre-cache fit) renders
    /// without the derived cache line instead of failing or printing
    /// zeros.
    #[test]
    fn trace_without_cache_counters_omits_the_cache_summary() {
        let dir = tmp("nocache");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            concat!(
                "{\"schema_version\":1,\"events\":0,\"phases\":{},\"counters\":{",
                "\"pool.dispatches\":12,\"pool.blocks\":12}}"
            ),
        )
        .unwrap();
        std::fs::write(dir.join(EVENTS_FILE), "").unwrap();
        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("pool.dispatches"), "{text}");
        assert!(!text.contains("round cache:"), "{text}");
        assert!(!text.contains("cache.fused_slot_hits"), "{text}");
    }

    /// Counters that exist but total zero (a fit that never exercised
    /// a layer) must render as `n/a`, never as a misleading `0.0%`.
    /// The manifest is an old `run.json` that still carries the
    /// retired `index.*`, `layout.*`, `fastmath.*` and
    /// `cache.cluster_row_*` counters: it must render, listing them as
    /// plain counters with no derived line of their own.
    #[test]
    fn legacy_zero_counter_manifest_still_renders() {
        let dir = tmp("zero-counters");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            concat!(
                "{\"schema_version\":1,\"events\":0,\"phases\":{},\"counters\":{",
                "\"cache.fused_slot_hits\":0,\"cache.fused_slot_recomputes\":0,",
                "\"cache.column_hits\":0,\"cache.column_recomputes\":0,",
                "\"cache.cluster_row_hits\":0,\"cache.cluster_row_recomputes\":0,",
                "\"index.range_sketch_pruned\":0,\"index.range_triangle_pruned\":0,",
                "\"index.range_prefix_pruned\":0,\"index.range_verified\":0,",
                "\"index.nearest_pruned\":0,\"index.nearest_verified\":0,",
                "\"layout.columnar_blocks\":0,\"layout.rowmajor_blocks\":0,",
                "\"fastmath.screened\":0,\"fastmath.excluded\":0,",
                "\"fastmath.verified\":0}}"
            ),
        )
        .unwrap();
        std::fs::write(dir.join(EVENTS_FILE), "").unwrap();
        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("fused n/a (0 lookups)"), "{text}");
        for counter in [
            "cache.cluster_row_hits",
            "index.range_verified",
            "layout.columnar_blocks",
            "fastmath.screened",
        ] {
            assert!(text.contains(counter), "{counter} not listed: {text}");
        }
        for derived in [
            "cluster rows",
            "neighbor index:",
            "columnar layout:",
            "fast math:",
        ] {
            assert!(!text.contains(derived), "{derived} rendered: {text}");
        }
        assert!(!text.contains("0.0%"), "zero-total rate leaked: {text}");
        assert!(!text.contains("NaN"), "{text}");
    }

    /// A real k=1 fit (no swaps possible, rounds end immediately) must
    /// inspect cleanly — its zero-activity layers say `n/a`.
    #[test]
    fn k1_trace_inspects_without_bogus_rates() {
        let dir = tmp("k1");
        let data = SyntheticSpec::new(120, 4, 1, 2.0).seed(5).generate();
        let rec = proclus_obs::JsonlRecorder::create(&dir).unwrap();
        Proclus::new(1, 2.0)
            .seed(1)
            .restarts(1)
            .fit_traced(&data.points, &rec)
            .unwrap();
        rec.finish(json::Json::Obj(Vec::new()), json::Json::Obj(Vec::new()))
            .unwrap();
        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("round cache:"), "{text}");
        assert!(!text.contains("NaN"), "{text}");
        // A genuinely-zero rate over a nonzero total (e.g. "0/1200
        // pruned (0.0%)") is meaningful and allowed; what must never
        // appear is a rate over a zero total.
        assert!(!text.contains("0/0 "), "zero-total rate leaked: {text}");
    }

    /// A trace that begins with a `scenario_meta` event (written by
    /// `proclus scenario --trace-out`) leads its summary with a
    /// `scenario:` identity line.
    #[test]
    fn scenario_trace_leads_with_the_scenario_line() {
        let dir = tmp("scn");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            "{\"schema_version\":1,\"events\":1,\"phases\":{}}",
        )
        .unwrap();
        std::fs::write(
            dir.join(EVENTS_FILE),
            "{\"type\":\"scenario_meta\",\"name\":\"zipf-sizes\",\"seed\":17,\"epochs\":4}\n",
        )
        .unwrap();
        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.contains("scenario: zipf-sizes  seed=17 epochs=4"),
            "{text}"
        );
    }

    fn write_manifest(dir: &PathBuf, text: &str) {
        std::fs::create_dir_all(dir).unwrap();
        std::fs::write(dir.join(MANIFEST_FILE), text).unwrap();
    }

    fn diff(a: &str, b: &str) -> Result<String, Box<dyn Error>> {
        let args = Args::parse_with_pairs(toks(&format!("--diff {a} {b}")), &[], PAIRS).unwrap();
        let mut buf = Vec::new();
        run(&args, &mut buf)?;
        Ok(String::from_utf8(buf).unwrap())
    }

    /// The row of `name` in a diff table, split on whitespace.
    fn row<'a>(text: &'a str, name: &str) -> Vec<&'a str> {
        text.lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|cells| cells.first() == Some(&name))
            .unwrap_or_else(|| panic!("no row {name}: {text}"))
    }

    /// Two fixture manifests: ratios B/A per phase column and per
    /// counter, `—` for a key one side lacks, `n/a` over a zero A. A is
    /// a legacy manifest carrying the retired `index.*`, `layout.*` and
    /// `cache.cluster_row_*` counters; it must still parse.
    #[test]
    fn diff_renders_ratios_and_missing_keys() {
        let (a, b) = (tmp("diff-a"), tmp("diff-b"));
        write_manifest(
            &a,
            concat!(
                "{\"schema_version\":1,\"events\":9,\"phases\":{",
                "\"locality\":{\"count\":4,\"total_us\":3000,\"max_us\":900},",
                "\"index\":{\"count\":1,\"total_us\":1000,\"max_us\":1000}},",
                "\"counters\":{\"cache.fused_slot_hits\":10,",
                "\"cache.cluster_row_hits\":7,\"index.range_verified\":3,",
                "\"layout.columnar_blocks\":2,\"pool.blocks\":0}}"
            ),
        );
        write_manifest(
            &b,
            concat!(
                "{\"schema_version\":1,\"events\":9,\"phases\":{",
                "\"locality\":{\"count\":4,\"total_us\":1500,\"max_us\":450},",
                "\"assign\":{\"count\":2,\"total_us\":500,\"max_us\":300}},",
                "\"counters\":{\"cache.fused_slot_hits\":15,\"pool.blocks\":8}}"
            ),
        );
        let text = diff(
            &a.display().to_string(),
            &b.join(MANIFEST_FILE).display().to_string(),
        );
        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
        let text = text.unwrap();
        // calls, total ms, max ms, share %: A, B, B/A each. Shares are
        // of each side's summed phase time: 75% → 75%.
        assert_eq!(
            row(&text, "locality")[1..],
            [
                "4", "4", "1.00", "3.000", "1.500", "0.50", "0.900", "0.450", "0.50", "75.0",
                "75.0", "1.00"
            ],
            "{text}"
        );
        assert_eq!(row(&text, "index")[1..4], ["1", "—", "—"], "{text}");
        assert_eq!(row(&text, "assign")[1..4], ["—", "2", "—"], "{text}");
        assert_eq!(
            row(&text, "cache.fused_slot_hits")[1..],
            ["10", "15", "1.50"]
        );
        assert_eq!(row(&text, "pool.blocks")[1..], ["0", "8", "n/a"]);
        for legacy in [
            "cache.cluster_row_hits",
            "index.range_verified",
            "layout.columnar_blocks",
        ] {
            assert_eq!(row(&text, legacy)[2..], ["—", "—"], "{legacy}: {text}");
        }
    }

    /// A real trace diffed against itself reads 1.00 in every ratio
    /// column of every phase and counter.
    #[test]
    fn self_diff_of_a_real_trace_is_all_ones() {
        let dir = tmp("self-diff");
        let data = SyntheticSpec::new(300, 6, 2, 3.0).seed(9).generate();
        let rec = proclus_obs::JsonlRecorder::create(&dir).unwrap();
        Proclus::new(2, 3.0)
            .seed(1)
            .fit_traced(&data.points, &rec)
            .unwrap();
        rec.finish(json::Json::Obj(Vec::new()), json::Json::Obj(Vec::new()))
            .unwrap();
        let path = dir.display().to_string();
        let text = diff(&path, &path);
        std::fs::remove_dir_all(&dir).ok();
        let text = text.unwrap();
        for phase in ["locality", "dims", "assign", "evaluate"] {
            let cells = row(&text, phase);
            assert_eq!(cells.len(), 13, "{text}");
            for ratio in [3, 6, 9, 12] {
                assert_eq!(cells[ratio], "1.00", "{phase}: {text}");
            }
        }
        assert_eq!(row(&text, "cache.column_hits")[3], "1.00", "{text}");
    }

    /// `--diff` prints both sides' environments before any table. A
    /// manifest from before the `env` block still parses, inspects and
    /// diffs; its side reads `not recorded`, and its cache line leaves
    /// out the column store it never had.
    #[test]
    fn diff_leads_with_both_environments_and_old_manifests_parse() {
        let (old, new) = (tmp("env-old"), tmp("env-new"));
        write_manifest(
            &old,
            concat!(
                "{\"schema_version\":1,\"events\":0,\"phases\":{},\"counters\":{",
                "\"cache.fused_slot_hits\":3,\"cache.fused_slot_recomputes\":1,",
                "\"cache.column_hits\":2,\"cache.column_recomputes\":2}}"
            ),
        );
        std::fs::write(old.join(EVENTS_FILE), "").unwrap();
        write_manifest(
            &new,
            concat!(
                "{\"schema_version\":1,",
                "\"env\":{\"nproc\":8,\"profile\":\"release\",\"rev\":\"abc123\"},",
                "\"events\":0,\"phases\":{},\"counters\":{\"cache.evictions\":4}}"
            ),
        );
        let text = diff(&old.display().to_string(), &new.display().to_string());
        let args = Args::parse(toks(&format!("--input {}", old.display())), &[]).unwrap();
        let mut buf = Vec::new();
        let inspected = run(&args, &mut buf);
        std::fs::remove_dir_all(&old).ok();
        std::fs::remove_dir_all(&new).ok();
        let text = text.unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[2], "env A: not recorded", "{text}");
        assert_eq!(
            lines[3], "env B: nproc=8 profile=release rev=abc123",
            "{text}"
        );
        assert_eq!(
            row(&text, "cache.evictions")[1..],
            ["—", "4", "—"],
            "{text}"
        );
        inspected.unwrap();
        let inspected = String::from_utf8(buf).unwrap();
        assert!(!inspected.contains("env:"), "{inspected}");
        assert!(
            inspected.contains("round cache: fused 3/4 hits (75.0%), columns 2/4 hits (50.0%)\n"),
            "{inspected}"
        );
    }

    /// `--diff` needs both runs, and takes no `--input` beside it.
    #[test]
    fn diff_usage_errors() {
        assert!(Args::parse_with_pairs(toks("--diff only-one"), &[], PAIRS).is_err());
        let args = Args::parse_with_pairs(toks("--diff a b --input c"), &[], PAIRS).unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        assert!(err.to_string().contains("--input"), "{err}");
        assert!(diff("/nonexistent/a", "/nonexistent/b").is_err());
    }

    #[test]
    fn missing_directory_errors() {
        let args = Args::parse(toks("--input /nonexistent/trace-dir"), &[]).unwrap();
        assert!(run(&args, &mut Vec::new()).is_err());
    }

    #[test]
    fn corrupt_event_line_reports_location() {
        let dir = tmp("bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(MANIFEST_FILE),
            "{\"schema_version\":1,\"events\":1,\"phases\":{}}",
        )
        .unwrap();
        std::fs::write(dir.join(EVENTS_FILE), "{\"kind\":\"not-a-kind\"}\n").unwrap();
        let args = Args::parse(toks(&format!("--input {}", dir.display())), &[]).unwrap();
        let err = run(&args, &mut Vec::new()).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.to_string().contains("line 1"), "{err}");
    }
}
