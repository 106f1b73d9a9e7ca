//! Layer spans of the traced run.
//!
//! The benchmark opens a `tsv3d-telemetry` span around every call it
//! makes into a layer. A traced run sends them to a JSON-lines sink
//! that writes into memory; the text is written out once the run ends
//! and rolled up by the same analysis `tsv3d trace` uses, which
//! rebuilds nesting from interval containment and gives each span its
//! self time. Every item runs under a handle labelled `item<k>`, so the
//! label is the item id. An untraced run uses a disabled handle, on
//! which a span costs one branch.

use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use tsv3d_telemetry::{JsonLinesSink, Span, TelemetryHandle};

/// The span recorder handed to the benchmark's layer calls.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    handle: TelemetryHandle,
    buffer: Option<SharedBuffer>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Self {
        Self::default()
    }

    /// A recorder that keeps every span in memory.
    pub fn in_memory() -> Self {
        let buffer = SharedBuffer::default();
        let sink = JsonLinesSink::with_writer(Box::new(buffer.clone()));
        Self {
            handle: TelemetryHandle::with_sink(Box::new(sink)),
            buffer: Some(buffer),
        }
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str) -> Span {
        self.handle.span(name)
    }

    /// The recorder for item number `k` of a pass: its spans carry the
    /// label `item<k>`.
    pub fn for_item(&self, k: usize) -> Tracer {
        if !self.handle.is_enabled() {
            return self.clone();
        }
        Tracer {
            handle: self.handle.with_thread_label(&format!("item{k}")),
            buffer: self.buffer.clone(),
        }
    }

    /// The recorded spans as JSON lines (empty when off).
    pub fn text(&self) -> String {
        self.handle.flush();
        self.buffer.as_ref().map_or_else(String::new, |buffer| {
            let bytes = buffer.0.lock().expect("trace buffer poisoned");
            String::from_utf8_lossy(&bytes).into_owned()
        })
    }
}

/// The in-memory destination of the traced run's sink.
#[derive(Clone, Debug, Default)]
struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuffer {
    fn write(&mut self, bytes: &[u8]) -> io::Result<usize> {
        self.0
            .lock()
            .map_err(|_| io::Error::other("trace buffer poisoned"))?
            .extend_from_slice(bytes);
        Ok(bytes.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
