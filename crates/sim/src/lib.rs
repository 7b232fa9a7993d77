//! # rain-sim — deterministic discrete-event cluster simulator
//!
//! The RAIN paper's experiments ran on a physical testbed: ten dual-NIC Linux
//! workstations joined by four eight-way Myrinet switches. This crate is the
//! software substitute used throughout the reproduction: a deterministic
//! discrete-event simulation of nodes, their network interfaces, and the
//! links between them, with node, link, and gray-failure fault injection and
//! exact repeatability from a seed.
//!
//! The crate deliberately knows nothing about the RAIN protocols themselves.
//! Protocol crates are written as pure state machines and are *driven* by a
//! [`Simulation`]: the test or experiment forwards the state machines'
//! outgoing messages via [`Simulation::send`], arms their time-outs via
//! [`Simulation::set_timer`], and feeds the resulting [`Event`]s back in.
//!
//! ```
//! use rain_sim::{Network, NodeId, Simulation, SimDuration, EventKind, DEFAULT_LINK_LATENCY};
//!
//! // Three nodes in a full mesh, no loss.
//! let net = Network::full_mesh(3, DEFAULT_LINK_LATENCY, 0.0);
//! let mut sim: Simulation<&str> = Simulation::new(net, 42);
//! sim.send(NodeId(0), NodeId(2), "hello");
//! let ev = sim.step().unwrap();
//! assert!(matches!(ev.kind, EventKind::Message { msg: "hello", .. }));
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod net;
pub mod rng;
pub mod sim;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use fault::{Fault, FaultPlan};
pub use net::{IfaceId, Link, LinkId, Network, NetworkBuilder, NodeId, DEFAULT_LINK_LATENCY};
pub use rng::DetRng;
pub use sim::{Event, EventKind, Simulation};
pub use time::{SimDuration, SimTime};
pub use trace::{DropReason, Trace};
