//! The independent answer checker. It shares no code with the solvers:
//! it parses the CSV bytes itself, turns pattern labels back into
//! predicates, and recomputes coverage, cost, the coverage target and the
//! size bound from the definitions (paper Definition 1, Fig. 1, Fig. 2).

use scwsc_core::solver::{Algorithm, Answer, CostModel, Query};
use scwsc_core::SetSystem;
use std::collections::HashMap;

/// One solver result as the benchmark received it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub answer: Answer,
    pub degraded: bool,
}

/// The rows of a CSV table, dictionary-encoded per attribute.
pub struct Rows {
    attrs: Vec<String>,
    dicts: Vec<HashMap<String, u32>>,
    cells: Vec<u32>,
    measures: Vec<f64>,
}

impl Rows {
    /// Parses `header...,measure` CSV without quoting (the generated
    /// inputs never need it).
    pub fn parse(csv: &str) -> Result<Rows, String> {
        let mut lines = csv.lines();
        let header: Vec<&str> = lines.next().ok_or("empty csv")?.split(',').collect();
        let width = header.len() - 1;
        let mut rows = Rows {
            attrs: header[..width].iter().map(|s| s.to_string()).collect(),
            dicts: vec![HashMap::new(); width],
            cells: Vec::new(),
            measures: Vec::new(),
        };
        for (i, line) in lines.enumerate() {
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != width + 1 || line.contains('"') {
                return Err(format!("csv line {}: unexpected shape", i + 2));
            }
            for (a, v) in fields[..width].iter().enumerate() {
                let next = rows.dicts[a].len() as u32;
                rows.cells
                    .push(*rows.dicts[a].entry(v.to_string()).or_insert(next));
            }
            let m = fields[width]
                .parse()
                .map_err(|e| format!("csv line {}: {e}", i + 2))?;
            rows.measures.push(m);
        }
        Ok(rows)
    }

    pub fn len(&self) -> usize {
        self.measures.len()
    }

    /// Parses `{attr=value, attr=ALL, ...}` into one optional value id
    /// per attribute (`None` = wildcard).
    fn predicate(&self, label: &str) -> Result<Vec<Option<u32>>, String> {
        let body = label
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("label {label:?} is not a pattern"))?;
        let terms: Vec<&str> = body.split(", ").collect();
        if terms.len() != self.attrs.len() {
            return Err(format!("label {label:?} has {} terms", terms.len()));
        }
        terms
            .iter()
            .zip(&self.attrs)
            .zip(&self.dicts)
            .map(|((term, attr), dict)| {
                let (name, value) = term
                    .split_once('=')
                    .ok_or_else(|| format!("term {term:?} lacks '='"))?;
                if name != attr {
                    return Err(format!("term {term:?} names {name}, expected {attr}"));
                }
                if value == "ALL" {
                    return Ok(None);
                }
                dict.get(value)
                    .map(|&id| Some(id))
                    .ok_or_else(|| format!("value {value:?} never occurs in {attr}"))
            })
            .collect()
    }

    /// Rows matching the pattern `label`.
    fn matching(&self, label: &str) -> Result<Vec<usize>, String> {
        let pred = self.predicate(label)?;
        let w = self.attrs.len();
        Ok((0..self.len())
            .filter(|&r| {
                pred.iter()
                    .zip(&self.cells[r * w..(r + 1) * w])
                    .all(|(p, &v)| p.is_none_or(|id| id == v))
            })
            .collect())
    }
}

/// Pattern weight under `cost` (paper Section II; `max` is the default).
fn pattern_cost(rows: &Rows, matched: &[usize], cost: CostModel) -> f64 {
    let ms = matched.iter().map(|&r| rows.measures[r]);
    match cost {
        CostModel::Max => ms.fold(0.0, f64::max),
        CostModel::Sum => ms.sum(),
        CostModel::Mean => ms.sum::<f64>() / matched.len() as f64,
        CostModel::Count => matched.len() as f64,
    }
}

/// Elements a query must cover over a universe of `n`: `⌈ŝn⌉` for CWSC
/// (Fig. 2), the `(1 − 1/e)`-discounted `⌈(1 − 1/e)ŝn⌉` for CMC (Fig. 1).
pub fn coverage_target(q: &Query, n: usize) -> usize {
    let fraction = match q.algorithm {
        Algorithm::Cwsc => q.coverage,
        Algorithm::Cmc => q.coverage * (1.0 - std::f64::consts::E.recip()),
    };
    (fraction * n as f64).ceil() as usize
}

/// Most sets a query may select: `k` for CWSC, `(1 + ε)k` for CMC.
pub fn size_bound(q: &Query) -> usize {
    match q.algorithm {
        Algorithm::Cwsc => q.k,
        Algorithm::Cmc => ((1.0 + q.eps) * q.k as f64).floor() as usize,
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Checks the claims an answer makes against recomputed ones, given the
/// coverage and cost recomputed from the selected sets.
fn check_claims(
    q: &Query,
    outcome: &Outcome,
    n: usize,
    covered: usize,
    cost: f64,
) -> Result<(), String> {
    let a = &outcome.answer;
    if a.labels.len() != a.size {
        return Err(format!("{} labels for size {}", a.labels.len(), a.size));
    }
    if a.size > size_bound(q) {
        return Err(format!("size {} over bound {}", a.size, size_bound(q)));
    }
    if covered != a.covered {
        return Err(format!("covers {covered}, claims {}", a.covered));
    }
    if !close(cost, a.total_cost) {
        return Err(format!("costs {cost}, claims {}", a.total_cost));
    }
    if outcome.degraded {
        if a.certified != Some(true) {
            return Err(format!("degraded answer not certified: {:?}", a.certified));
        }
        return Ok(());
    }
    let target = coverage_target(q, n);
    if a.target != target {
        return Err(format!("target {} claimed, {target} required", a.target));
    }
    if covered < target {
        return Err(format!("covers {covered}, short of {target}"));
    }
    if a.certified.is_some() {
        return Err("complete answer carries a certificate verdict".into());
    }
    Ok(())
}

/// Checks a pattern-table answer against the table's rows.
pub fn check_patterns(rows: &Rows, q: &Query, outcome: &Outcome) -> Result<(), String> {
    let mut hit = vec![false; rows.len()];
    let mut cost = 0.0;
    for label in &outcome.answer.labels {
        let matched = rows.matching(label)?;
        if matched.is_empty() {
            return Err(format!("pattern {label} covers nothing"));
        }
        cost += pattern_cost(rows, &matched, q.cost);
        for r in matched {
            hit[r] = true;
        }
    }
    let covered = hit.iter().filter(|&&h| h).count();
    check_claims(q, outcome, rows.len(), covered, cost)
}

/// Checks a set-system answer (`set#id` labels) against the system.
pub fn check_sets(system: &SetSystem, q: &Query, outcome: &Outcome) -> Result<(), String> {
    let n = system.num_elements();
    let mut hit = vec![false; n];
    let mut cost = 0.0;
    for label in &outcome.answer.labels {
        let id: u32 = label
            .strip_prefix("set#")
            .and_then(|s| s.parse().ok())
            .filter(|&id| (id as usize) < system.num_sets())
            .ok_or_else(|| format!("label {label:?} is not a set of the system"))?;
        cost += system.cost(id).value();
        for &e in system.members(id) {
            hit[e as usize] = true;
        }
    }
    let covered = hit.iter().filter(|&&h| h).count();
    check_claims(q, outcome, n, covered, cost)
}

/// Whether two answers agree: same selection, same claims.
pub fn same_answer(a: &Answer, b: &Answer) -> bool {
    a.labels == b.labels
        && a.size == b.size
        && a.covered == b.covered
        && a.target == b.target
        && close(a.total_cost, b.total_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scwsc_core::{Deadline, NoopObserver, Solver, ThreadPool, Threads};
    use scwsc_patterns::PatternInstance;

    const CSV: &str = "Type,Location,Cost\nA,West,10\nB,South,2\nB,West,4\nA,South,1\nB,South,3\n";

    fn solve(q: &Query) -> Outcome {
        let table = scwsc_data::csv::table_from_csv(CSV).unwrap();
        let out = PatternInstance::new(table)
            .solve(
                q,
                &ThreadPool::new(Threads::serial()),
                &Deadline::unbounded(),
                &mut NoopObserver,
            )
            .unwrap();
        Outcome {
            degraded: out.is_degraded(),
            answer: out.value().clone(),
        }
    }

    /// Failures among `outcomes`, counted the way every workload counts
    /// them into `failed` and `ok_share`.
    fn failures(rows: &Rows, q: &Query, outcomes: &[Outcome]) -> usize {
        outcomes
            .iter()
            .filter(|o| check_patterns(rows, q, o).is_err())
            .count()
    }

    #[test]
    fn real_answers_pass() {
        let rows = Rows::parse(CSV).unwrap();
        for cost in [
            CostModel::Max,
            CostModel::Sum,
            CostModel::Mean,
            CostModel::Count,
        ] {
            for q in [Query::cwsc(2, 0.8), Query::cmc(2, 0.8)] {
                let q = Query { cost, ..q };
                let o = solve(&q);
                check_patterns(&rows, &q, &o).unwrap_or_else(|e| panic!("{q:?}: {e}"));
            }
        }
    }

    #[test]
    fn tampered_answers_count_as_failures() {
        let rows = Rows::parse(CSV).unwrap();
        let q = Query::cwsc(2, 0.8);
        let good = solve(&q);
        let mut cost_off = good.clone();
        cost_off.answer.total_cost += 0.5;
        let mut short = good.clone();
        short.answer.labels.pop();
        short.answer.size -= 1;
        let mut over_k = good.clone();
        over_k.answer.labels.push("{Type=ALL, Location=ALL}".into());
        over_k.answer.labels.push("{Type=A, Location=ALL}".into());
        over_k.answer.size += 2;
        over_k.answer.covered = rows.len();
        let mut uncertified = good.clone();
        uncertified.degraded = true;
        assert_eq!(failures(&rows, &q, std::slice::from_ref(&good)), 0);
        assert_eq!(
            failures(&rows, &q, &[good, cost_off, short, over_k, uncertified]),
            4
        );
    }

    #[test]
    fn labels_parse_back_into_predicates() {
        let rows = Rows::parse(CSV).unwrap();
        assert_eq!(rows.matching("{Type=B, Location=South}").unwrap(), [1, 4]);
        assert_eq!(rows.matching("{Type=ALL, Location=West}").unwrap(), [0, 2]);
        assert_eq!(rows.matching("{Type=ALL, Location=ALL}").unwrap().len(), 5);
        assert!(rows.matching("{Type=C, Location=ALL}").is_err());
        assert!(rows.matching("{Location=West, Type=A}").is_err());
        assert!(rows.matching("set#3").is_err());
    }

    #[test]
    fn set_answers_are_recomputed_from_the_system() {
        let mut b = SetSystem::builder(4);
        b.add_set([0, 1], 1.0)
            .add_set([2, 3], 2.0)
            .add_universe_set(10.0);
        let system = b.build().unwrap();
        let q = Query::cwsc(2, 1.0);
        let answer = Answer {
            size: 2,
            covered: 4,
            target: 4,
            total_cost: 3.0,
            labels: vec!["set#0".into(), "set#1".into()],
            certified: None,
        };
        let ok = Outcome {
            answer,
            degraded: false,
        };
        check_sets(&system, &q, &ok).unwrap();
        let mut bad = ok.clone();
        bad.answer.labels[1] = "set#0".into();
        assert!(check_sets(&system, &q, &bad).is_err());
        let mut bad = ok;
        bad.answer.labels[1] = "set#9".into();
        assert!(check_sets(&system, &q, &bad).is_err());
    }

    #[test]
    fn targets_and_bounds_follow_the_paper() {
        assert_eq!(coverage_target(&Query::cwsc(3, 0.5), 10), 5);
        assert_eq!(coverage_target(&Query::cmc(3, 1.0), 100), 64);
        assert_eq!(size_bound(&Query::cwsc(3, 0.5)), 3);
        assert_eq!(size_bound(&Query::cmc(3, 0.5)), 6);
    }
}
