//! The one observability bundle every runtime takes.
//!
//! [`Obs`] says what a cluster records about itself; each runtime's
//! `launch_observed` hands every node it starts — server, replacement
//! server, worker, supervisor replica — its handles through the same
//! method, so every runtime honours every field the same way.

use std::net::SocketAddr;

use fluentps_obs::{ProfCollector, Profiler, TraceCollector, Tracer};
use fluentps_transport::collect::{StreamerConfig, TraceStreamer};
use fluentps_transport::NodeId;

/// What a cluster records. `Obs::default()` records nothing.
///
/// An introspected caller keeps its own handles to the collectors it puts
/// here and serves them itself (`fluentps_obs::http::serve_profiled`,
/// `HealthEngine::attach_to`).
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// In-process trace collector (wall clock). Every node of one launch
    /// that does not stream records into one shared ring of it, so the
    /// ring capacity is the cluster's event budget.
    pub collector: Option<TraceCollector>,
    /// Stream every node's events to the
    /// [`fluentps_transport::CollectorService`] at this address: each node
    /// records into its *own* wall-clock collector with a ring of this many
    /// events (distinct epochs are what the service's clock-offset
    /// handshake aligns), and a [`TraceStreamer`] ships the ring. Nodes
    /// that stream do not record into `collector`.
    pub stream_to: Option<(SocketAddr, usize)>,
    /// Span-profile collector: server loops, worker clients, TCP frame
    /// encode/decode and trace streamer drains profile into it.
    pub profiler: Option<ProfCollector>,
}

impl Obs {
    /// One launch's ring: a tracer into `collector` (disabled without one)
    /// that every node of the launch which does not stream records into.
    pub(crate) fn ring(&self) -> Tracer {
        self.collector
            .as_ref()
            .map(TraceCollector::tracer)
            .unwrap_or_default()
    }

    /// The tracer, profiler and (when streaming) trace streamer of `node`;
    /// `ring` is the launch's [`Obs::ring`].
    ///
    /// Each profiler handle aggregates on its own, so the node and its
    /// streamer thread never contend.
    pub(crate) fn node(
        &self,
        node: NodeId,
        ring: &Tracer,
    ) -> (Tracer, Profiler, Option<TraceStreamer>) {
        let profiler = || {
            self.profiler
                .as_ref()
                .map(ProfCollector::profiler)
                .unwrap_or_default()
        };
        match self.stream_to {
            Some((addr, capacity)) => {
                let own = TraceCollector::wall(capacity);
                let streamer =
                    TraceStreamer::start(node, &own, addr, StreamerConfig::default(), profiler());
                (own.tracer(), profiler(), Some(streamer))
            }
            None => (ring.clone(), profiler(), None),
        }
    }
}
