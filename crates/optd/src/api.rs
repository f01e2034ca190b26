//! HTTP control API for the daemon.
//!
//! Routes (all responses `application/json` unless noted):
//!
//! - `POST /v1/campaigns` — submit a campaign spec. `201` with the
//!   campaign view on admission, `422` with a structured reason when the
//!   SLO is infeasible under a `reject` policy or the spec is invalid,
//!   `400` for malformed JSON.
//! - `GET /v1/campaigns` — list all campaigns.
//! - `GET /v1/campaigns/{id}` — one campaign's full view.
//! - `GET /v1/campaigns/{id}/best` — best assignment so far, UPB gap,
//!   and confidence; `409` before the first estimate exists.
//! - `DELETE /v1/campaigns/{id}` — stop tracking and delete the
//!   campaign directory.
//!
//! `GET /healthz`, `/metrics` and `/metrics.json` are answered by the
//! HTTP core from the `Obs` handle the server is started with, as on
//! every endpoint (see [`optassign_httpd`]).

use crate::admission::{AdmissionDecision, AdmissionReview};
use crate::daemon::{CampaignView, DaemonHandle, SubmitError, SubmitOutcome};
use crate::spec::CampaignSpec;
use optassign_httpd::{Handler, Request, Response};
use optassign_obs::{json_string, Obs};
use std::sync::Arc;

/// Counter the HTTP core bumps on malformed/oversized/timed-out
/// requests.
pub const REJECTED_COUNTER: &str = "optd_requests_rejected_total";

/// Builds the daemon's request handler.
///
/// `_obs` is unused: the HTTP core serves `/metrics` from the handle
/// given to [`optassign_httpd::HttpServer::start`]. The parameter stays
/// because existing callers, the campaign benchmark among them, pass it.
#[must_use]
pub fn handler(daemon: DaemonHandle, _obs: Obs) -> Arc<Handler> {
    Arc::new(move |req: &Request| route(&daemon, req))
}

fn route(daemon: &DaemonHandle, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/campaigns") => list_campaigns(daemon),
        ("POST", "/v1/campaigns") => submit_campaign(daemon, req),
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/v1/campaigns/") {
                campaign_route(daemon, method, rest)
            } else {
                Response::not_found()
            }
        }
    }
}

fn campaign_route(daemon: &DaemonHandle, method: &str, rest: &str) -> Response {
    let (name, sub) = match rest.split_once('/') {
        Some((name, sub)) => (name, Some(sub)),
        None => (rest, None),
    };
    match (method, sub) {
        ("GET", None) => match daemon.view(name) {
            Some(view) => Response::json(200, view_json(&view)),
            None => unknown_campaign(),
        },
        ("GET", Some("best")) => match daemon.view(name) {
            Some(view) => best_json(&view),
            None => unknown_campaign(),
        },
        ("DELETE", None) => {
            if daemon.remove(name) {
                Response::json(200, format!("{{\"deleted\":{}}}", json_string(name)))
            } else {
                unknown_campaign()
            }
        }
        _ => Response::not_found(),
    }
}

fn unknown_campaign() -> Response {
    Response::json(404, "{\"error\":\"unknown_campaign\"}".to_string())
}

fn list_campaigns(daemon: &DaemonHandle) -> Response {
    let views = daemon.list();
    let items: Vec<String> = views.iter().map(view_json).collect();
    Response::json(200, format!("{{\"campaigns\":[{}]}}", items.join(",")))
}

fn submit_campaign(daemon: &DaemonHandle, req: &Request) -> Response {
    let body = req.body_str();
    let spec = match CampaignSpec::from_json(&body) {
        Ok(spec) => spec,
        Err(e) => {
            return Response::json(
                400,
                format!(
                    "{{\"error\":\"malformed_spec\",\"reason\":{}}}",
                    json_string(&e.0)
                ),
            )
        }
    };
    match daemon.submit_traced(&spec, req.trace) {
        Ok(SubmitOutcome::Admitted { view, review }) => Response::json(
            201,
            format!(
                "{{\"campaign\":{},\"admission\":{}}}",
                view_json(&view),
                admission_json(&review)
            ),
        ),
        Ok(SubmitOutcome::Rejected { review }) => Response::json(
            422,
            format!(
                "{{\"error\":\"infeasible_slo\",\"reason\":{},\"admission\":{}}}",
                json_string(&format!(
                    "an evaluation budget of {} captures a top-{} assignment with probability {:.4}, below the requested confidence {}; {} evaluations would be required (or resubmit with \"on_infeasible\":\"degrade\")",
                    review.eval_budget,
                    review.acceptable_loss,
                    review.predicted_capture,
                    review.confidence,
                    review.required_evaluations,
                )),
                admission_json(&review)
            ),
        ),
        Err(SubmitError::Invalid(reason)) => Response::json(
            422,
            format!(
                "{{\"error\":\"invalid_spec\",\"reason\":{}}}",
                json_string(&reason)
            ),
        ),
        Err(SubmitError::Storage(reason)) => Response::json(
            500,
            format!(
                "{{\"error\":\"storage\",\"reason\":{}}}",
                json_string(&reason)
            ),
        ),
    }
}

fn opt_f64(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x}"))
}

/// Renders one campaign view. Field order is fixed so clients and the
/// smoke script can diff output textually.
fn view_json(view: &CampaignView) -> String {
    let snap = &view.snapshot;
    let cfg = &view.spec.config;
    let stop = snap
        .stop
        .map_or_else(|| "null".to_string(), |s| json_string(s.name()));
    let method = snap.method.map_or_else(|| "null".to_string(), json_string);
    let error = view
        .error
        .as_deref()
        .map_or_else(|| "null".to_string(), json_string);
    let degraded_from = view
        .spec
        .degraded_from
        .map_or_else(|| "null".to_string(), |v| format!("{v}"));
    format!(
        "{{\"id\":{},\"tenant\":{},\"state\":{},\"slo\":{},\"steps\":{},\
         \"rounds\":{},\"samples\":{},\"evaluations\":{},\
         \"best_performance\":{},\"estimated_optimal\":{},\"gap\":{},\"method\":{},\
         \"degradations\":{},\"budget_exhausted\":{},\"converged\":{},\"stop\":{},\
         \"error\":{},\"target\":{{\"acceptable_loss\":{},\"confidence\":{},\
         \"eval_budget\":{},\"degraded_from\":{}}}}}",
        json_string(&view.name),
        json_string(&view.tenant),
        json_string(view.state.name()),
        json_string(view.slo.name()),
        view.steps,
        snap.rounds,
        snap.samples,
        snap.evaluations,
        opt_f64(snap.best_performance),
        opt_f64(snap.estimated_optimal),
        opt_f64(snap.gap),
        method,
        snap.degradations,
        snap.budget_exhausted,
        snap.converged,
        stop,
        error,
        cfg.acceptable_loss,
        cfg.confidence,
        cfg.eval_budget,
        degraded_from,
    )
}

fn best_json(view: &CampaignView) -> Response {
    let snap = &view.snapshot;
    let (Some(assignment), Some(performance)) = (&snap.best_assignment, snap.best_performance)
    else {
        return Response::json(
            409,
            "{\"error\":\"no_sample_yet\",\"reason\":\"campaign has not completed its first batch\"}"
                .to_string(),
        );
    };
    let placement: Vec<String> = assignment
        .contexts()
        .iter()
        .map(ToString::to_string)
        .collect();
    Response::json(
        200,
        format!(
            "{{\"id\":{},\"state\":{},\"assignment\":[{}],\"performance\":{},\
             \"estimated_optimal\":{},\"gap\":{},\"method\":{},\"converged\":{}}}",
            json_string(&view.name),
            json_string(view.state.name()),
            placement.join(","),
            performance,
            opt_f64(snap.estimated_optimal),
            opt_f64(snap.gap),
            snap.method.map_or_else(|| "null".to_string(), json_string),
            snap.converged,
        ),
    )
}

fn admission_json(review: &AdmissionReview) -> String {
    let (decision, granted) = match review.decision {
        AdmissionDecision::Admit => ("admit", "null".to_string()),
        AdmissionDecision::Degrade { granted_loss } => ("degrade", format!("{granted_loss}")),
        AdmissionDecision::Reject => ("reject", "null".to_string()),
    };
    format!(
        "{{\"decision\":\"{decision}\",\"predicted_capture\":{},\"required_evaluations\":{},\
         \"eval_budget\":{},\"acceptable_loss\":{},\"confidence\":{},\"granted_loss\":{granted}}}",
        review.predicted_capture,
        review.required_evaluations,
        review.eval_budget,
        review.acceptable_loss,
        review.confidence,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Daemon, DaemonConfig};
    use optassign_httpd::{HttpConfig, HttpServer};
    use optassign_obs::Json;
    use std::path::PathBuf;
    use std::time::{Duration, Instant};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "optd-api-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn start_service(dir: &std::path::Path) -> (Daemon, HttpServer, String) {
        let obs = Obs::metrics_only();
        let daemon = Daemon::start(DaemonConfig::new(dir), obs.clone()).unwrap();
        let config = HttpConfig {
            thread_name: "optd-http-test",
            rejected_counter: REJECTED_COUNTER,
            allowed_methods: &["GET", "POST", "DELETE"],
            max_body_bytes: 64 * 1024,
        };
        let server = HttpServer::start(
            "127.0.0.1:0",
            obs.clone(),
            config,
            handler(daemon.handle(), obs),
        )
        .unwrap();
        let addr = server.addr().to_string();
        (daemon, server, addr)
    }

    fn call(addr: &str, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
        crate::client::http_call(addr, method, path, body).unwrap()
    }

    const SPEC: &str = r#"{"tenant":"api","seed":9,"model":{"kind":"synthetic","tasks":8},
        "config":{"n_init":300,"n_delta":100,"acceptable_loss":0.05,"eval_budget":20000}}"#;

    #[test]
    fn full_campaign_lifecycle_over_http() {
        let dir = temp_dir("lifecycle");
        let (_daemon, _server, addr) = start_service(&dir);

        let (status, body) = call(&addr, "GET", "/healthz", None);
        assert_eq!((status, body.as_str()), (200, "ok\n"));

        let (status, body) = call(&addr, "POST", "/v1/campaigns", Some(SPEC));
        assert_eq!(status, 201, "{body}");
        let doc = Json::parse(&body).unwrap();
        let id = doc
            .get("campaign")
            .and_then(|c| c.get("id"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_eq!(id, "c000001");
        assert_eq!(
            doc.get("admission")
                .and_then(|a| a.get("decision"))
                .and_then(Json::as_str),
            Some("admit")
        );

        // Poll until finished.
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (status, body) = call(&addr, "GET", "/v1/campaigns/c000001", None);
            assert_eq!(status, 200, "{body}");
            let doc = Json::parse(&body).unwrap();
            match doc.get("state").and_then(Json::as_str) {
                Some("finished") => {
                    assert_eq!(doc.get("slo").and_then(Json::as_str), Some("met"));
                    assert_eq!(doc.get("converged").and_then(Json::as_bool), Some(true));
                    break;
                }
                Some("failed") => panic!("campaign failed: {body}"),
                _ => {
                    assert!(Instant::now() < deadline, "campaign never finished");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }

        let (status, body) = call(&addr, "GET", "/v1/campaigns/c000001/best", None);
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        let assignment = doc.get("assignment").and_then(Json::as_array).unwrap();
        assert_eq!(assignment.len(), 8);
        assert!(doc.get("performance").and_then(Json::as_f64).unwrap() > 0.0);
        let gap = doc.get("gap").and_then(Json::as_f64).unwrap();
        assert!(gap <= 0.05, "{gap}");

        let (status, body) = call(&addr, "GET", "/v1/campaigns", None);
        assert_eq!(status, 200);
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("campaigns")
                .and_then(Json::as_array)
                .map(<[optassign_obs::Json]>::len),
            Some(1)
        );

        let (status, _) = call(&addr, "DELETE", "/v1/campaigns/c000001", None);
        assert_eq!(status, 200);
        let (status, _) = call(&addr, "GET", "/v1/campaigns/c000001", None);
        assert_eq!(status, 404);

        let (status, body) = call(&addr, "GET", "/metrics", None);
        assert_eq!(status, 200);
        assert!(body.contains("optd_steps_total"), "{body}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn infeasible_slo_is_a_structured_422() {
        let dir = temp_dir("reject");
        let (_daemon, _server, addr) = start_service(&dir);
        let spec = r#"{"tenant":"greedy","seed":1,"model":{"kind":"synthetic","tasks":8},
            "config":{"n_init":100,"acceptable_loss":0.01,"eval_budget":120}}"#;
        let (status, body) = call(&addr, "POST", "/v1/campaigns", Some(spec));
        assert_eq!(status, 422, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("infeasible_slo")
        );
        let admission = doc.get("admission").unwrap();
        assert_eq!(
            admission.get("required_evaluations").and_then(Json::as_u64),
            Some(299)
        );
        let p = admission
            .get("predicted_capture")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(p < 0.75, "{p}");

        // Same ask under a degrade policy is admitted with a granted loss.
        let degrade = spec.replace("\"config\"", "\"on_infeasible\":\"degrade\",\"config\"");
        let (status, body) = call(&addr, "POST", "/v1/campaigns", Some(&degrade));
        assert_eq!(status, 201, "{body}");
        let doc = Json::parse(&body).unwrap();
        let admission = doc.get("admission").unwrap();
        assert_eq!(
            admission.get("decision").and_then(Json::as_str),
            Some("degrade")
        );
        let granted = admission
            .get("granted_loss")
            .and_then(Json::as_f64)
            .unwrap();
        assert!((granted - 0.024_651).abs() < 1e-4, "{granted}");
        let degraded_from = doc
            .get("campaign")
            .and_then(|c| c.get("target"))
            .and_then(|t| t.get("degraded_from"))
            .and_then(Json::as_f64)
            .unwrap();
        assert!((degraded_from - 0.01).abs() < 1e-12);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_and_unknown_requests_are_clean_errors() {
        let dir = temp_dir("errors");
        let (_daemon, _server, addr) = start_service(&dir);
        let (status, body) = call(&addr, "POST", "/v1/campaigns", Some("not json"));
        assert_eq!(status, 400);
        assert!(body.contains("malformed_spec"));
        // A retry limit no budget can spend is refused before anything
        // is stored.
        let hostile = r#"{"tenant":"api","seed":9,"model":{"kind":"synthetic","tasks":8},
            "config":{"n_init":300,"n_delta":100,"acceptable_loss":0.05,"eval_budget":20000,
            "max_eval_retries":18446744073709551615}}"#;
        let (status, body) = call(&addr, "POST", "/v1/campaigns", Some(hostile));
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("invalid_spec"), "{body}");
        let (status, body) = call(&addr, "GET", "/v1/campaigns", None);
        assert_eq!((status, body.as_str()), (200, "{\"campaigns\":[]}"));
        let (status, _) = call(&addr, "GET", "/v1/campaigns/c999999", None);
        assert_eq!(status, 404);
        let (status, _) = call(&addr, "GET", "/v1/campaigns/c999999/best", None);
        assert_eq!(status, 404);
        let (status, _) = call(&addr, "DELETE", "/v1/campaigns/c999999", None);
        assert_eq!(status, 404);
        let (status, _) = call(&addr, "GET", "/nope", None);
        assert_eq!(status, 404);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
