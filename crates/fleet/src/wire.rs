//! JSON wire formats of the fleet protocol.
//!
//! The fabric's HTTP bodies are hand-rolled JSON over the workspace's
//! dependency-free reader ([`optassign_obs::Json`]), like every other
//! wire format in the workspace. Two conventions keep the protocol
//! bit-exact:
//!
//! * **Integers travel as plain JSON integers.** The reader parses `u64`
//!   exactly (no float round-trip), so salts, slot indices, and campaign
//!   fingerprints survive untouched.
//! * **Measured values travel as their IEEE-754 bit pattern** (`u64`,
//!   field `value_bits`), never as a decimal float. A leased slot's
//!   value must land in the worker's shard and in the coordinator's
//!   journal with exactly the bits the model produced.
//!
//! Assignments travel as their context arrays; both ends rebuild them
//! through [`Assignment::new`] against the campaign topology, which
//! re-validates feasibility at the trust boundary.

use optassign::iterative::{LeaseOutcome, LeaseRequest, LeaseResolution, SlotOutcome};
use optassign::{Assignment, Topology};
use optassign_obs::Json;
use optassign_store::record::MeasurementRecord;
use std::fmt::Write as _;

/// Renders a context array (`[0,5,12]`).
fn push_contexts<T: std::fmt::Display>(out: &mut String, contexts: &[T]) {
    out.push('[');
    for (i, c) in contexts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{c}");
    }
    out.push(']');
}

fn contexts_of(value: &Json) -> Option<Vec<usize>> {
    let items = value.as_array()?;
    let mut contexts = Vec::with_capacity(items.len());
    for item in items {
        contexts.push(usize::try_from(item.as_u64()?).ok()?);
    }
    Some(contexts)
}

fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("\"{key}\" (u64) is required"))
}

/// Encodes a lease request as the `POST /v1/lease` body.
#[must_use]
pub fn encode_lease(lease: &LeaseRequest) -> String {
    let mut out = String::with_capacity(64 + lease.slots.len() * 48);
    let _ = write!(
        out,
        "{{\"campaign\":{},\"sequence\":{},\"batch_salt\":{},\
         \"max_retries\":{},\"draw_cap\":{},\"slots\":[",
        lease.campaign, lease.sequence, lease.batch_salt, lease.max_retries, lease.draw_cap,
    );
    for (i, (slot, primary)) in lease.slots.iter().zip(&lease.primaries).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"slot\":{slot},\"contexts\":");
        push_contexts(&mut out, primary.contexts());
        out.push('}');
    }
    out.push_str("]}");
    out
}

/// Decodes a lease request, rebuilding each primary against `topo`.
///
/// # Errors
///
/// A human-readable reason on malformed JSON, missing fields, or a
/// context array that is not a feasible assignment for this topology.
pub fn decode_lease(text: &str, topo: Topology) -> Result<LeaseRequest, String> {
    let doc = Json::parse(text).ok_or("malformed lease JSON")?;
    let slots_json = doc
        .get("slots")
        .and_then(Json::as_array)
        .ok_or("\"slots\" (array) is required")?;
    let mut slots = Vec::with_capacity(slots_json.len());
    let mut primaries = Vec::with_capacity(slots_json.len());
    for item in slots_json {
        let slot = field_u64(item, "slot")?;
        let contexts = item
            .get("contexts")
            .and_then(contexts_of)
            .ok_or_else(|| format!("slot {slot}: \"contexts\" (array of u64) is required"))?;
        let primary = Assignment::new(contexts, topo)
            .map_err(|e| format!("slot {slot}: infeasible primary: {e}"))?;
        slots.push(slot);
        primaries.push(primary);
    }
    Ok(LeaseRequest {
        campaign: field_u64(&doc, "campaign")?,
        sequence: field_u64(&doc, "sequence")?,
        batch_salt: field_u64(&doc, "batch_salt")?,
        max_retries: usize::try_from(field_u64(&doc, "max_retries")?)
            .map_err(|_| "\"max_retries\" out of range")?,
        draw_cap: usize::try_from(field_u64(&doc, "draw_cap")?)
            .map_err(|_| "\"draw_cap\" out of range")?,
        slots,
        primaries,
    })
}

/// Encodes lease outcomes as the `POST /v1/lease` response body.
#[must_use]
pub fn encode_outcomes(outcomes: &[LeaseOutcome]) -> String {
    let mut out = String::with_capacity(32 + outcomes.len() * 64);
    out.push_str("{\"outcomes\":[");
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"slot\":{},\"resolution\":\"{}\",\"attempts\":{},\"retries\":{},\"redrawn\":{}",
            o.slot,
            o.resolution.name(),
            o.outcome.attempts,
            o.outcome.retries,
            o.outcome.redrawn,
        );
        if let Some((assignment, value)) = &o.outcome.measured {
            let _ = write!(out, ",\"value_bits\":{},\"contexts\":", value.to_bits());
            push_contexts(&mut out, assignment.contexts());
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn resolution_by_name(name: &str) -> Option<LeaseResolution> {
    [
        LeaseResolution::Replayed,
        LeaseResolution::PeerHit,
        LeaseResolution::Evaluated,
        LeaseResolution::Abandoned,
    ]
    .into_iter()
    .find(|r| r.name() == name)
}

/// Encodes a journaled slot as the answer to
/// `GET /v1/slot/{campaign}/{sequence}/{slot}`: the measured contexts and
/// the value's bits, all a peer needs to check the record is its slot's.
#[must_use]
pub fn encode_slot(record: &MeasurementRecord) -> String {
    let mut out = format!("{{\"value_bits\":{},\"contexts\":", record.value.to_bits());
    push_contexts(&mut out, &record.contexts);
    out.push('}');
    out
}

/// Decodes a slot answer into its contexts and value; `None` when the
/// body is malformed.
#[must_use]
pub fn decode_slot(text: &str) -> Option<(Vec<usize>, f64)> {
    let doc = Json::parse(text)?;
    let bits = doc.get("value_bits").and_then(Json::as_u64)?;
    let contexts = doc.get("contexts").and_then(contexts_of)?;
    Some((contexts, f64::from_bits(bits)))
}

/// Decodes a lease response, rebuilding measured assignments against
/// `topo`.
///
/// # Errors
///
/// A human-readable reason on malformed JSON, an unknown resolution
/// name, or an infeasible measured assignment.
pub fn decode_outcomes(text: &str, topo: Topology) -> Result<Vec<LeaseOutcome>, String> {
    let doc = Json::parse(text).ok_or("malformed lease response JSON")?;
    let items = doc
        .get("outcomes")
        .and_then(Json::as_array)
        .ok_or("\"outcomes\" (array) is required")?;
    let mut outcomes = Vec::with_capacity(items.len());
    for item in items {
        let slot = field_u64(item, "slot")?;
        let name = item
            .get("resolution")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("slot {slot}: \"resolution\" is required"))?;
        let resolution = resolution_by_name(name)
            .ok_or_else(|| format!("slot {slot}: unknown resolution \"{name}\""))?;
        let measured = match item.get("value_bits").and_then(Json::as_u64) {
            None => None,
            Some(bits) => {
                let contexts = item
                    .get("contexts")
                    .and_then(contexts_of)
                    .ok_or_else(|| format!("slot {slot}: measured outcome without \"contexts\""))?;
                let assignment = Assignment::new(contexts, topo)
                    .map_err(|e| format!("slot {slot}: infeasible measured assignment: {e}"))?;
                Some((assignment, f64::from_bits(bits)))
            }
        };
        outcomes.push(LeaseOutcome {
            slot,
            outcome: SlotOutcome {
                measured,
                attempts: usize::try_from(field_u64(item, "attempts")?)
                    .map_err(|_| "attempts out of range")?,
                retries: usize::try_from(field_u64(item, "retries")?)
                    .map_err(|_| "retries out of range")?,
                redrawn: usize::try_from(field_u64(item, "redrawn")?)
                    .map_err(|_| "redrawn out of range")?,
            },
            resolution,
        });
    }
    Ok(outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use optassign::sampling::random_assignment;
    use optassign_stats::rng::StdRng;

    fn t2() -> Topology {
        Topology::ultrasparc_t2()
    }

    fn sample_assignment(seed: u64) -> Assignment {
        let mut rng = StdRng::seed_from_u64(seed);
        random_assignment(8, t2(), &mut rng).unwrap()
    }

    #[test]
    fn lease_round_trips() {
        let lease = LeaseRequest {
            campaign: u64::MAX - 3,
            sequence: 4,
            batch_salt: 0xDEAD_BEEF_1234_5678,
            max_retries: 2,
            draw_cap: 5,
            slots: (17..24).collect(),
            primaries: (0..7).map(sample_assignment).collect(),
        };
        let decoded = decode_lease(&encode_lease(&lease), t2()).unwrap();
        assert_eq!(decoded, lease);
    }

    #[test]
    fn lease_body_pairs_each_slot_with_its_contexts() {
        let lease = LeaseRequest {
            campaign: 1,
            sequence: 2,
            batch_salt: 3,
            max_retries: 5,
            draw_cap: 6,
            slots: vec![7, 8],
            primaries: vec![
                Assignment::new(vec![0, 9], t2()).unwrap(),
                Assignment::new(vec![3, 4], t2()).unwrap(),
            ],
        };
        assert_eq!(
            encode_lease(&lease),
            "{\"campaign\":1,\"sequence\":2,\"batch_salt\":3,\"max_retries\":5,\
             \"draw_cap\":6,\"slots\":[{\"slot\":7,\"contexts\":[0,9]},\
             {\"slot\":8,\"contexts\":[3,4]}]}"
        );
    }

    #[test]
    fn outcomes_round_trip_with_exact_value_bits() {
        // A value with no short decimal representation: bits must be
        // preserved exactly through the wire.
        let value = f64::from_bits(0x3FF0_0000_0000_0001);
        let outcomes = vec![
            LeaseOutcome {
                slot: 3,
                outcome: SlotOutcome {
                    measured: Some((sample_assignment(9), value)),
                    attempts: 2,
                    retries: 1,
                    redrawn: 0,
                },
                resolution: LeaseResolution::Evaluated,
            },
            LeaseOutcome {
                slot: 4,
                outcome: SlotOutcome {
                    measured: None,
                    attempts: 6,
                    retries: 4,
                    redrawn: 2,
                },
                resolution: LeaseResolution::Abandoned,
            },
            LeaseOutcome {
                slot: 5,
                outcome: SlotOutcome {
                    measured: Some((sample_assignment(2), 44.25)),
                    attempts: 0,
                    retries: 0,
                    redrawn: 0,
                },
                resolution: LeaseResolution::PeerHit,
            },
        ];
        let decoded = decode_outcomes(&encode_outcomes(&outcomes), t2()).unwrap();
        assert_eq!(decoded, outcomes);
        let (_, roundtripped) = decoded[0].outcome.measured.clone().unwrap();
        assert_eq!(roundtripped.to_bits(), value.to_bits());
    }

    #[test]
    fn slot_answers_round_trip_with_exact_value_bits() {
        let record = MeasurementRecord {
            campaign: 1,
            sequence: 2,
            slot: 3,
            key: 4,
            value: f64::from_bits(0x3FF0_0000_0000_0001),
            attempts: 1,
            retries: 0,
            redrawn: 0,
            contexts: vec![0, 9, 63],
        };
        let text = encode_slot(&record);
        assert_eq!(
            text,
            "{\"value_bits\":4607182418800017409,\"contexts\":[0,9,63]}"
        );
        let (contexts, value) = decode_slot(&text).unwrap();
        assert_eq!(contexts, [0, 9, 63]);
        assert_eq!(value.to_bits(), record.value.to_bits());
        assert_eq!(decode_slot("{\"value_bits\":1}"), None);
    }

    #[test]
    fn rejects_malformed_bodies_with_reasons() {
        for (text, needle) in [
            ("nope", "malformed"),
            ("{}", "slots"),
            (r#"{"slots":[{"slot":1}]}"#, "contexts"),
            (
                r#"{"slots":[],"campaign":1,"sequence":0,"batch_salt":2}"#,
                "max_retries",
            ),
        ] {
            let e = decode_lease(text, t2()).unwrap_err();
            assert!(e.contains(needle), "{text}: {e}");
        }
        let e = decode_outcomes(r#"{"outcomes":[{"slot":1,"resolution":"banana"}]}"#, t2())
            .unwrap_err();
        assert!(e.contains("unknown resolution"), "{e}");
    }
}
