//! A RESTful-style request/response layer over the knowledge base —
//! the local stand-in for the `sintel-api` web service (Table 1's
//! "RESTful API" row). Routing and verbs mirror the real service; the
//! transport is in-process.

use sintel_store::{schema::collections, Doc, Filter, SintelDb};

/// HTTP-style method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Read.
    Get,
    /// Create.
    Post,
    /// Partial update.
    Patch,
    /// Remove.
    Delete,
}

/// A request against the API.
#[derive(Debug, Clone)]
pub struct Request {
    /// Verb.
    pub method: Method,
    /// Path, e.g. `/events` or `/events/3`.
    pub path: String,
    /// JSON body for Post/Patch.
    pub body: Option<Doc>,
}

impl Request {
    /// GET helper.
    pub fn get(path: &str) -> Self {
        Self { method: Method::Get, path: path.to_string(), body: None }
    }

    /// POST helper.
    pub fn post(path: &str, body: Doc) -> Self {
        Self { method: Method::Post, path: path.to_string(), body: Some(body) }
    }

    /// PATCH helper.
    pub fn patch(path: &str, body: Doc) -> Self {
        Self { method: Method::Patch, path: path.to_string(), body: Some(body) }
    }

    /// DELETE helper.
    pub fn delete(path: &str) -> Self {
        Self { method: Method::Delete, path: path.to_string(), body: None }
    }
}

/// An API response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// 200 with a JSON body.
    Ok(Doc),
    /// 201 with the created id.
    Created(u64),
    /// 204.
    NoContent,
    /// 4xx with a message.
    Error(String),
}

/// The API server: routes requests onto the knowledge base.
pub struct RestApi {
    db: SintelDb,
}

/// Resources exposed by the API (collection routes).
const RESOURCES: &[&str] = &[
    collections::DATASETS,
    collections::SIGNALS,
    collections::TEMPLATES,
    collections::PIPELINES,
    collections::EXPERIMENTS,
    collections::SIGNALRUNS,
    collections::EVENTS,
    collections::ANNOTATIONS,
    collections::COMMENTS,
    collections::USERS,
];

impl RestApi {
    /// Wrap a knowledge base.
    pub fn new(db: SintelDb) -> Self {
        Self { db }
    }

    /// Borrow the underlying knowledge base.
    pub fn db(&self) -> &SintelDb {
        &self.db
    }

    /// Handle one request.
    pub fn handle(&self, request: &Request) -> Response {
        let parts: Vec<&str> =
            request.path.trim_matches('/').split('/').filter(|p| !p.is_empty()).collect();
        match parts.as_slice() {
            [resource] if RESOURCES.contains(resource) => {
                self.collection_route(resource, request)
            }
            [resource, id] if RESOURCES.contains(resource) => {
                let Ok(id) = id.parse::<u64>() else {
                    return Response::Error(format!("invalid id '{id}'"));
                };
                self.item_route(resource, id, request)
            }
            _ => Response::Error(format!("no route for '{}'", request.path)),
        }
    }

    fn collection_route(&self, resource: &str, request: &Request) -> Response {
        match request.method {
            Method::Get => {
                let docs = self.db.raw().find(resource, &Filter::All);
                Response::Ok(Doc::Arr(docs))
            }
            Method::Post => match &request.body {
                Some(body @ Doc::Obj(_)) => match self.db.raw().insert(resource, body.clone()) {
                    Ok(id) => Response::Created(id),
                    Err(e) => Response::Error(e.to_string()),
                },
                _ => Response::Error("POST requires an object body".into()),
            },
            _ => Response::Error("method not allowed on collection".into()),
        }
    }

    fn item_route(&self, resource: &str, id: u64, request: &Request) -> Response {
        match request.method {
            Method::Get => match self.db.raw().get(resource, id) {
                Some(doc) => Response::Ok(doc),
                None => Response::Error(format!("{resource}/{id} not found")),
            },
            Method::Patch => match &request.body {
                Some(Doc::Obj(fields)) => {
                    let patch: Vec<(&str, Doc)> =
                        fields.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                    match self.db.raw().patch(resource, id, &patch) {
                        Ok(()) => Response::NoContent,
                        Err(e) => Response::Error(e.to_string()),
                    }
                }
                _ => Response::Error("PATCH requires an object body".into()),
            },
            Method::Delete => match self.db.raw().delete(resource, id) {
                Ok(()) => Response::NoContent,
                Err(e) => Response::Error(e.to_string()),
            },
            Method::Post => Response::Error("POST not allowed on item".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn api_with_event() -> (RestApi, u64) {
        let db = SintelDb::in_memory();
        let run = db.add_signalrun(1, "S-1", "done").unwrap();
        let ev = db.add_event(run, "S-1", 100, 200, 0.7).unwrap();
        (RestApi::new(db), ev)
    }

    #[test]
    fn get_collection_and_item() {
        let (api, ev) = api_with_event();
        let Response::Ok(Doc::Arr(events)) = api.handle(&Request::get("/events")) else {
            panic!("expected list")
        };
        assert_eq!(events.len(), 1);
        let Response::Ok(doc) = api.handle(&Request::get(&format!("/events/{ev}"))) else {
            panic!("expected doc")
        };
        assert_eq!(doc.get("signal").unwrap().as_str(), Some("S-1"));
    }

    #[test]
    fn post_patch_delete_lifecycle() {
        let (api, _) = api_with_event();
        let Response::Created(id) = api.handle(&Request::post(
            "/comments",
            Doc::obj().with("event_id", 1i64).with("text", "odd spike"),
        )) else {
            panic!("expected created")
        };
        let resp = api.handle(&Request::patch(
            &format!("/comments/{id}"),
            Doc::obj().with("text", "resolved: maneuver"),
        ));
        assert_eq!(resp, Response::NoContent);
        let Response::Ok(doc) = api.handle(&Request::get(&format!("/comments/{id}"))) else {
            panic!()
        };
        assert_eq!(doc.get("text").unwrap().as_str(), Some("resolved: maneuver"));
        assert_eq!(api.handle(&Request::delete(&format!("/comments/{id}"))), Response::NoContent);
        assert!(matches!(
            api.handle(&Request::get(&format!("/comments/{id}"))),
            Response::Error(_)
        ));
    }

    #[test]
    fn bad_routes_and_bodies() {
        let (api, _) = api_with_event();
        assert!(matches!(api.handle(&Request::get("/nonsense")), Response::Error(_)));
        assert!(matches!(api.handle(&Request::get("/events/abc")), Response::Error(_)));
        assert!(matches!(
            api.handle(&Request { method: Method::Post, path: "/events".into(), body: None }),
            Response::Error(_)
        ));
        assert!(matches!(
            api.handle(&Request::delete("/events")),
            Response::Error(_)
        ));
        assert!(matches!(api.handle(&Request::get("/")), Response::Error(_)));
    }

    #[test]
    fn all_schema_resources_are_routable() {
        let (api, _) = api_with_event();
        for resource in RESOURCES {
            let resp = api.handle(&Request::get(&format!("/{resource}")));
            assert!(matches!(resp, Response::Ok(_)), "{resource}");
        }
    }
}
