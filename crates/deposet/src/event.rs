//! Events and messages.
//!
//! An event takes a process from one local state to the next. Per the
//! paper's Section 3 an event is a local (internal) event, a message send,
//! or a message receive — never both a send and a receive (deposet
//! constraint D3).

use pctl_causality::{MsgId, StateId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The kind of the event between state `k` and state `k + 1` of a process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// A local computation step.
    Internal,
    /// Sending the identified message.
    Send(MsgId),
    /// Receiving the identified message.
    Recv(MsgId),
}

impl EventKind {
    /// The message sent by this event, if any.
    pub fn sent(self) -> Option<MsgId> {
        match self {
            EventKind::Send(m) => Some(m),
            _ => None,
        }
    }

    /// The message received by this event, if any.
    pub fn received(self) -> Option<MsgId> {
        match self {
            EventKind::Recv(m) => Some(m),
            _ => None,
        }
    }
}

/// An application message, with the two states related by the paper's
/// *remotely precedes* relation `;`.
///
/// For a message `m`: `m.from ; m.to` — `from` is the last state before the
/// send event and `to` is the first state after the receive event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Message {
    /// Message identity, dense per computation.
    pub id: MsgId,
    /// Free-form tag describing the message (protocol/step name). Shared:
    /// a builder or a decoded trace keeps one copy per distinct tag.
    pub tag: Arc<str>,
    /// State immediately preceding the send event.
    pub from: StateId,
    /// State immediately following the receive event.
    pub to: StateId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pctl_causality::ProcessId;

    #[test]
    fn event_kind_accessors() {
        assert_eq!(EventKind::Internal.sent(), None);
        assert_eq!(EventKind::Internal.received(), None);
        assert_eq!(EventKind::Send(MsgId(3)).sent(), Some(MsgId(3)));
        assert_eq!(EventKind::Send(MsgId(3)).received(), None);
        assert_eq!(EventKind::Recv(MsgId(4)).received(), Some(MsgId(4)));
    }

    #[test]
    fn message_serde_roundtrip() {
        let m = Message {
            id: MsgId(0),
            tag: "req".into(),
            from: StateId::new(ProcessId(0), 1),
            to: StateId::new(ProcessId(1), 2),
        };
        let json = serde_json::to_string(&m).unwrap();
        let back: Message = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
