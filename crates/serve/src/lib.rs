//! # ams-serve
//!
//! Placement-as-a-service: the long-running mode behind `amsplace serve`.
//!
//! The server speaks a minimal JSON-over-HTTP/1.1 protocol (std-only —
//! hand-rolled framing over [`std::net::TcpListener`], documents via the
//! workspace's own [`Json`](ams_netlist::json::Json)) and executes jobs on a
//! bounded worker pool. Two cache levels sit in front of the solver:
//!
//! * an **exact-result cache** keyed by `(design_hash, options_hash)` —
//!   a repeat of an identical request returns the stored response
//!   bit-for-bit, marked `cached: true`;
//! * a **warm-solver pool** keyed by design hash — a request whose
//!   configuration differs only in re-lowerable constraint
//!   families (the λ_th pin-density cap, say) is re-solved on the live
//!   incremental solver via [`Placer::rebase`](ams_place::Placer::rebase):
//!   the changed families' selector groups are retired and re-lowered
//!   while the SAT core keeps its learnt clauses and saved phases.
//!
//! ```no_run
//! use ams_serve::{client, Server, ServeConfig};
//! use ams_netlist::json::Json;
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::start(ServeConfig::default())?;
//! let body = Json::obj([("design", Json::str("buf"))]);
//! let accepted = client::post(server.addr(), "/v1/jobs", Some(&body))?;
//! assert_eq!(accepted.status, 202);
//! server.shutdown();
//! server.join();
//! # Ok(())
//! # }
//! ```

//! ## Crash safety
//!
//! With a journal directory configured, every job transition is fsync'd
//! to an append-only WAL before it takes effect, and a restarted server
//! replays the log: done jobs keep answering polls (and repopulate the
//! exact cache), queued jobs re-enter the queue, and mid-solve jobs are
//! re-run or marked `interrupted` per [`ResumePolicy`]. See
//! [`journal`] for the on-disk format and DESIGN.md for the failure
//! model.

pub mod client;
pub mod fault;
pub mod http;
mod jobs;
pub mod journal;
mod server;

pub use jobs::{Counters, Engine, EngineConfig, RecoveryReport, ResumePolicy, Submitted};
pub use server::{ServeConfig, Server};
