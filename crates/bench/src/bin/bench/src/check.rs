//! Answer checking: every response is parsed and held against its
//! request, against the other algorithm's answer for the same question
//! (Theorem 3), and — for a sample — against an in-process oracle.

use crate::workload::QueryReq;
use kbtim::serve::Json;
use std::collections::HashMap;

/// A successful query response, as far as the checks need it.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    pub seeds: Vec<u64>,
    pub gains: Vec<u64>,
    pub coverage: u64,
    pub theta_q: u64,
    /// Delta-tier mutation generation (mutable servers only).
    pub generation: Option<u64>,
}

/// What one response line turned out to be.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Answer(Answer),
    /// A mutation or flush acknowledgement.
    Ack {
        op: String,
        generation: u64,
        unflushed: u64,
    },
    /// A structured protocol error (`overloaded` is a shed).
    Error {
        code: String,
    },
}

fn u64_array(json: &Json, key: &str) -> Result<Vec<u64>, String> {
    match json.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| format!("{key:?} holds a non-integer")))
            .collect(),
        _ => Err(format!("missing array {key:?}")),
    }
}

fn u64_field(json: &Json, key: &str) -> Result<u64, String> {
    json.get(key).and_then(Json::as_u64).ok_or_else(|| format!("missing integer {key:?}"))
}

/// The `id` a response line echoes, read without a full parse (the
/// generator calls this on its hot path; responses lead with the id).
pub fn response_id(line: &str) -> Option<u64> {
    let digits = line.strip_prefix("{\"id\":")?;
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    digits[..end].parse().ok()
}

pub fn parse_response(line: &str) -> Result<Response, String> {
    let json = Json::parse(line)?;
    if let Some(Json::Str(code)) = json.get("code") {
        return Ok(Response::Error { code: code.clone() });
    }
    if let Some(Json::Str(op)) = json.get("op") {
        return Ok(Response::Ack {
            op: op.clone(),
            generation: u64_field(&json, "generation")?,
            unflushed: u64_field(&json, "unflushed")?,
        });
    }
    Ok(Response::Answer(Answer {
        seeds: u64_array(&json, "seeds")?,
        gains: u64_array(&json, "marginal_gains")?,
        coverage: u64_field(&json, "coverage")?,
        theta_q: u64_field(&json, "theta_q")?,
        generation: json.get("generation").and_then(Json::as_u64),
    }))
}

/// Structural checks of one answer against its request. `Ok(true)`
/// means the answer is shorter than `k`, which is legal only when the
/// greedy ran out of gain — the caller must then confirm it against the
/// oracle.
pub fn check_answer(req: &QueryReq, ans: &Answer) -> Result<bool, String> {
    if ans.seeds.len() != ans.gains.len() {
        return Err(format!("{} seeds but {} gains", ans.seeds.len(), ans.gains.len()));
    }
    if ans.seeds.len() > req.k as usize {
        return Err(format!("{} seeds for k={}", ans.seeds.len(), req.k));
    }
    if ans.gains.iter().sum::<u64>() != ans.coverage {
        return Err(format!("coverage {} is not the sum of the gains", ans.coverage));
    }
    if ans.gains.windows(2).any(|w| w[0] < w[1]) {
        return Err("marginal gains increase".to_string());
    }
    if ans.gains.contains(&0) {
        return Err("a zero-gain seed was emitted".to_string());
    }
    let mut distinct = ans.seeds.clone();
    distinct.sort_unstable();
    distinct.dedup();
    if distinct.len() != ans.seeds.len() {
        return Err("a seed repeats".to_string());
    }
    if ans.coverage > ans.theta_q {
        return Err(format!("coverage {} exceeds theta_q {}", ans.coverage, ans.theta_q));
    }
    Ok(ans.seeds.len() < req.k as usize)
}

type Question = (Vec<u32>, u32, Option<u64>);

/// Cross-request agreement: rr and irr must give the same seeds and
/// gains for the same (keyword set, k) at the same generation
/// (Theorem 3, strengthened to identical sequences by the shared
/// tie-breaking). The first answer seen for a question is the
/// reference for all later ones, whichever algorithm gave it.
#[derive(Default)]
pub struct Agreement {
    /// (keyword set, k, generation) → the reference (seeds, gains).
    seen: HashMap<Question, (Vec<u64>, Vec<u64>)>,
    /// Comparisons actually made (a reference existed).
    pub compared: u64,
}

impl Agreement {
    pub fn check(&mut self, req: &QueryReq, ans: &Answer) -> Result<(), String> {
        let key = (req.topics.clone(), req.k, ans.generation);
        match self.seen.get(&key) {
            None => {
                self.seen.insert(key, (ans.seeds.clone(), ans.gains.clone()));
                Ok(())
            }
            Some((seeds, gains)) => {
                self.compared += 1;
                if *seeds == ans.seeds && *gains == ans.gains {
                    Ok(())
                } else {
                    Err(format!(
                        "{} answer for topics {:?} k={} differs from an earlier answer",
                        req.algo(),
                        req.topics,
                        req.k
                    ))
                }
            }
        }
    }
}

/// One response of a mutable server, for the generation checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GenEvent {
    pub sent_ns: u64,
    pub recv_ns: u64,
    pub generation: u64,
    /// A write or flush acknowledgement (not a query answer).
    pub ack: bool,
}

/// For each event, the highest generation any response had already
/// shown by the time the event's request was sent — the generation its
/// answer may not fall below.
pub fn generation_floors(events: &[GenEvent]) -> Vec<u64> {
    let mut by_recv: Vec<&GenEvent> = events.iter().collect();
    by_recv.sort_by_key(|e| e.recv_ns);
    let mut by_sent: Vec<usize> = (0..events.len()).collect();
    by_sent.sort_by_key(|&i| events[i].sent_ns);
    let mut floors = vec![0u64; events.len()];
    let (mut floor, mut seen) = (0u64, 0usize);
    for i in by_sent {
        while seen < by_recv.len() && by_recv[seen].recv_ns < events[i].sent_ns {
            floor = floor.max(by_recv[seen].generation);
            seen += 1;
        }
        floors[i] = floor;
    }
    floors
}

/// Causal generation order on a mutable server: once *any* response
/// carrying generation G has been received, every request sent after
/// that moment must be answered at generation ≥ G, and a writer's acks
/// strictly increase.
pub fn check_generations(events: &[GenEvent]) -> Result<(), String> {
    for (e, floor) in events.iter().zip(generation_floors(events)) {
        if e.generation < floor {
            return Err(format!(
                "a request sent at {} ns was answered at generation {} after generation {floor} \
                 had already been observed",
                e.sent_ns, e.generation
            ));
        }
    }
    let mut acks: Vec<&GenEvent> = events.iter().filter(|e| e.ack).collect();
    acks.sort_by_key(|e| e.recv_ns);
    if let Some(w) = acks.windows(2).find(|w| w[1].generation <= w[0].generation) {
        return Err(format!(
            "write acks do not increase: {} then {}",
            w[0].generation, w[1].generation
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(k: u32) -> QueryReq {
        QueryReq { topics: vec![1, 4], k, irr: false }
    }

    fn ans(seeds: &[u64], gains: &[u64], coverage: u64) -> Answer {
        Answer {
            seeds: seeds.to_vec(),
            gains: gains.to_vec(),
            coverage,
            theta_q: 1000,
            generation: None,
        }
    }

    #[test]
    fn parses_the_three_response_shapes() {
        let line = r#"{"id":7,"algo":"irr","seeds":[83,411],"marginal_gains":[52,40],"coverage":92,"estimated_influence":14.25,"theta_q":1800,"rr_sets_loaded":240,"shards":1,"generation":3,"front_end":"epoll","elapsed_us":913}"#;
        assert_eq!(response_id(line), Some(7));
        let Response::Answer(a) = parse_response(line).unwrap() else { panic!("not an answer") };
        assert_eq!(
            (a.seeds, a.gains, a.coverage, a.theta_q),
            (vec![83, 411], vec![52, 40], 92, 1800)
        );
        assert_eq!(a.generation, Some(3));

        let ack = r#"{"id":5,"op":"flush","generation":12,"unflushed":0,"front_end":"epoll"}"#;
        assert_eq!(
            parse_response(ack).unwrap(),
            Response::Ack { op: "flush".into(), generation: 12, unflushed: 0 }
        );
        let err = r#"{"id":9,"error":"admission queue full","code":"overloaded"}"#;
        assert_eq!(parse_response(err).unwrap(), Response::Error { code: "overloaded".into() });
        assert!(parse_response("{\"id\":1,\"seeds\":[1]}").is_err());
        assert!(parse_response("not json").is_err());
        assert_eq!(response_id("{\"error\":\"x\"}"), None);
    }

    #[test]
    fn checker_rejects_hand_made_wrong_answers() {
        assert_eq!(check_answer(&req(3), &ans(&[5, 9, 2], &[40, 30, 30], 100)), Ok(false));
        // Shorter than k is flagged for the oracle, not rejected.
        assert_eq!(check_answer(&req(5), &ans(&[5, 9], &[40, 30], 70)), Ok(true));
        // One seed too many.
        assert!(check_answer(&req(2), &ans(&[5, 9, 2], &[40, 30, 30], 100)).is_err());
        // Coverage that is not the sum of the gains.
        assert!(check_answer(&req(3), &ans(&[5, 9, 2], &[40, 30, 30], 101)).is_err());
        // Gains out of greedy order.
        assert!(check_answer(&req(3), &ans(&[5, 9, 2], &[30, 40, 30], 100)).is_err());
        // Seeds and gains of different lengths.
        assert!(check_answer(&req(3), &ans(&[5, 9, 2], &[60, 40], 100)).is_err());
        // A repeated seed, a zero-gain seed, more coverage than RR sets.
        assert!(check_answer(&req(3), &ans(&[5, 9, 5], &[40, 30, 30], 100)).is_err());
        assert!(check_answer(&req(3), &ans(&[5, 9, 2], &[40, 30, 0], 70)).is_err());
        assert!(check_answer(&req(3), &ans(&[5, 9, 2], &[900, 90, 20], 1010)).is_err());
    }

    #[test]
    fn rr_and_irr_must_agree_per_generation() {
        let mut agree = Agreement::default();
        let rr = req(3);
        let irr = QueryReq { irr: true, ..req(3) };
        let good = ans(&[5, 9, 2], &[40, 30, 30], 100);
        assert!(agree.check(&rr, &good).is_ok());
        assert!(agree.check(&irr, &good).is_ok());
        assert_eq!(agree.compared, 1);
        // Same question, different seeds: Theorem 3 is violated.
        assert!(agree.check(&irr, &ans(&[5, 9, 3], &[40, 30, 30], 100)).is_err());
        // Another generation is another question.
        let later = Answer { generation: Some(2), ..ans(&[5, 9, 3], &[40, 30, 30], 100) };
        assert!(agree.check(&irr, &later).is_ok());
        // Another k is another question too.
        assert!(agree.check(&req(2), &ans(&[5, 9], &[40, 30], 70)).is_ok());
    }

    #[test]
    fn generations_may_not_go_back_once_observed() {
        let ev = |sent_ns, recv_ns, generation, ack| GenEvent { sent_ns, recv_ns, generation, ack };
        let ok =
            [ev(0, 10, 1, true), ev(5, 30, 1, false), ev(20, 40, 2, true), ev(50, 60, 2, false)];
        assert!(check_generations(&ok).is_ok());
        assert_eq!(generation_floors(&ok), vec![0, 0, 1, 2]);
        // Overlapping requests may see either side of a write.
        let overlap = [ev(0, 100, 1, false), ev(10, 50, 2, true)];
        assert!(check_generations(&overlap).is_ok());
        // Sent after generation 2 was acked, answered at 1: stale read.
        let stale = [ev(0, 10, 2, true), ev(20, 30, 1, false)];
        assert!(check_generations(&stale).is_err());
        // Two acks with the same generation: a write was lost or merged.
        let repeat = [ev(0, 10, 3, true), ev(20, 30, 3, true)];
        assert!(check_generations(&repeat).is_err());
    }
}
