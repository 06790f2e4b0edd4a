//! Correctness oracles. Every output of the program is compared with the
//! same computation done in-process through the library; any difference,
//! down to one unit in the last place, fails the operation.

use mtperf::counters::SampleSet;

/// Checks `mtperf predict` CSV output against the sections it scored and
/// the in-process predictions, bit for bit.
pub fn check_predict_csv(text: &str, samples: &SampleSet, expected: &[f64]) -> Result<(), String> {
    let mut lines = text.lines();
    if lines.next() != Some("workload,section_index,cpi,predicted_cpi") {
        return Err("predict output: bad header".to_string());
    }
    let mut n = 0;
    for (i, line) in lines.enumerate() {
        let (s, want) = match (samples.samples().get(i), expected.get(i)) {
            (Some(s), Some(w)) => (s, *w),
            _ => return Err(format!("predict output: extra line {}", i + 2)),
        };
        let mut f = line.split(',');
        let (w, idx, cpi, pred) = (f.next(), f.next(), f.next(), f.next());
        let same_bits = |field: Option<&str>, v: f64| {
            field
                .and_then(|x| x.parse::<f64>().ok())
                .is_some_and(|x| x.to_bits() == v.to_bits())
        };
        if w != Some(s.workload.as_str())
            || idx.and_then(|x| x.parse::<usize>().ok()) != Some(s.section_index)
            || !same_bits(cpi, s.cpi)
            || !same_bits(pred, want)
            || f.next().is_some()
        {
            return Err(format!("predict output: line {} differs: {line}", i + 2));
        }
        n += 1;
    }
    if n != samples.len() {
        return Err(format!(
            "predict output: {n} records for {} sections",
            samples.len()
        ));
    }
    Ok(())
}

/// One parsed serve reply.
#[derive(Debug, PartialEq)]
pub struct Reply {
    /// The `ok` flag.
    pub ok: bool,
    /// The error kind of a failed reply (`overloaded`, …).
    pub error_kind: Option<String>,
    /// The predictions of a predict reply.
    pub predictions: Vec<f64>,
}

/// Parses the fields of a `mtperf-serve-v2` reply line the benchmark
/// needs. Predictions are read with `str::parse::<f64>`, which inverts the
/// server's shortest round-trip formatting exactly.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    let ok = if line.contains("\"ok\":true") {
        true
    } else if line.contains("\"ok\":false") {
        false
    } else {
        return Err(format!("reply without ok flag: {}", clip(line)));
    };
    let error_kind = line.find("\"kind\":\"").map(|at| {
        let rest = &line[at + 8..];
        rest[..rest.find('"').unwrap_or(rest.len())].to_string()
    });
    let mut predictions = Vec::new();
    if let Some(at) = line.find("\"predictions\":[") {
        let rest = &line[at + 15..];
        let body = &rest[..rest.find(']').ok_or("unterminated predictions")?];
        if !body.is_empty() {
            for v in body.split(',') {
                predictions.push(
                    v.parse::<f64>()
                        .map_err(|_| format!("bad prediction {v:?}"))?,
                );
            }
        }
    }
    Ok(Reply {
        ok,
        error_kind,
        predictions,
    })
}

fn clip(line: &str) -> &str {
    &line[..line.len().min(160)]
}

/// Checks a predict reply: ok, not degraded, and every prediction
/// bit-identical to the in-process `ModelTree::predict` value.
pub fn check_predict_reply(line: &str, expected: &[f64]) -> Result<(), String> {
    let reply = parse_reply(line)?;
    if !reply.ok {
        return Err(format!(
            "error reply {}",
            reply.error_kind.unwrap_or_else(|| "?".to_string())
        ));
    }
    if line.contains("\"degraded\":true") {
        return Err("degraded reply".to_string());
    }
    if reply.predictions.len() != expected.len() {
        return Err(format!(
            "{} predictions for {} rows",
            reply.predictions.len(),
            expected.len()
        ));
    }
    match reply
        .predictions
        .iter()
        .zip(expected)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(i) => Err(format!(
            "row {i}: got {} want {}",
            reply.predictions[i], expected[i]
        )),
        None => Ok(()),
    }
}

/// Checks an acknowledgement reply (`promote`, `shutdown`).
pub fn check_ack(line: &str) -> Result<(), String> {
    let reply = parse_reply(line)?;
    if reply.ok {
        Ok(())
    } else {
        Err(format!(
            "error reply {}",
            reply.error_kind.unwrap_or_else(|| "?".to_string())
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtperf::counters::{SectionSample, N_EVENTS};

    fn line(preds: &[f64]) -> String {
        let body: Vec<String> = preds.iter().map(|p| format!("{p}")).collect();
        format!(
            "{{\"proto\":\"mtperf-serve-v2\",\"id\":\"s1\",\"ok\":true,\"degraded\":false,\"predictions\":[{}],\"error\":null,\"health\":null,\"models\":null}}",
            body.join(",")
        )
    }

    #[test]
    fn exact_reply_passes() {
        let want = [1.2345678901234567, 0.1 + 0.2, 3.0];
        assert_eq!(check_predict_reply(&line(&want), &want), Ok(()));
    }

    #[test]
    fn one_ulp_flip_fails() {
        let want: [f64; 2] = [1.2345678901234567, 0.30000000000000004];
        let flipped = [want[0], f64::from_bits(want[1].to_bits() + 1)];
        assert!(check_predict_reply(&line(&flipped), &want).is_err());
        let short = [want[0]];
        assert!(check_predict_reply(&line(&short), &want).is_err());
    }

    #[test]
    fn overloaded_reply_fails() {
        let l = "{\"proto\":\"mtperf-serve-v2\",\"id\":\"s9\",\"ok\":false,\"degraded\":false,\"predictions\":null,\"error\":{\"kind\":\"overloaded\",\"message\":\"queue full (64 requests)\"},\"health\":null,\"models\":null}";
        let r = parse_reply(l).unwrap();
        assert!(!r.ok);
        assert_eq!(r.error_kind.as_deref(), Some("overloaded"));
        let err = check_predict_reply(l, &[1.0]).unwrap_err();
        assert!(err.contains("overloaded"), "{err}");
        assert!(check_ack(l).is_err());
        assert!(parse_reply("garbage").is_err());
    }

    #[test]
    fn predict_csv_check_catches_a_flipped_bit() {
        let mut set = SampleSet::new();
        set.push(SectionSample::new("w", 0, 1.5, [0.0; N_EVENTS]));
        set.push(SectionSample::new("w", 1, 2.5, [0.0; N_EVENTS]));
        let preds = [1.25, 2.0000000000000004];
        let text = format!(
            "workload,section_index,cpi,predicted_cpi\nw,0,1.5,{}\nw,1,2.5,{}\n",
            preds[0], preds[1]
        );
        assert_eq!(check_predict_csv(&text, &set, &preds), Ok(()));
        let off = [preds[0], f64::from_bits(preds[1].to_bits() - 1)];
        assert!(check_predict_csv(&text, &set, &off).is_err());
        let truncated = "workload,section_index,cpi,predicted_cpi\nw,0,1.5,1.25\n";
        assert!(check_predict_csv(truncated, &set, &preds).is_err());
    }
}
