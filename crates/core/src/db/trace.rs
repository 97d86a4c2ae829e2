//! Tracing (Statistics → Tracing, feature `obs-trace`): the causal span
//! sink, installed into every probed layer at open, and its dump.

use super::*;

impl Database {
    /// Every retained span event, oldest first, ready for
    /// [`fame_obs::chrome_trace_json`] / [`fame_obs::spans_tsv`] export.
    /// Non-destructive: a second dump sees the same events plus newer ones.
    pub fn dump_trace(&self) -> Vec<fame_obs::SpanEvent> {
        self.obs.spans.events()
    }

    /// Install the span sink into every probed layer. Runs at open before
    /// recovery, so even the open-time replay is traced.
    pub(super) fn install_spans(&self) {
        #[cfg(feature = "concurrency-multi")]
        if let Some(pool) = self.engine.peek(|core| core.pager.pool().shared_handle()) {
            pool.set_trace_sink(std::sync::Arc::clone(&self.obs.spans));
        }
        #[cfg(feature = "concurrency-multi-writer")]
        if let Engine::Shared(w) = &self.engine {
            w.txn.set_trace_sink(std::sync::Arc::clone(&self.obs.spans));
        }
        #[cfg(feature = "replication")]
        if let Some(p) = &self.replication {
            p.set_trace_sink(std::sync::Arc::clone(&self.obs.spans));
        }
    }
}
