// Package repl is the log-shipping replication layer: a primary streams its
// durable WAL segment — the exact on-disk bytes, unchanged — to N replicas,
// each of which applies committed transactions in commit order and stands
// ready to be promoted when the primary dies.
//
// The design keeps the WAL format the single source of truth. A ship message
// is an ordinary internal/server frame whose payload carries a byte range of
// the primary's durable segment image behind a 16-byte prefix, the segment
// epoch and starting offset (frame.go) — the wire header, CRC, payload cap
// and decoding errors are the server's, and a frame the replica rejects is
// answered with the server's MsgError. Every step costs in proportion to what
// is new, not to what was shipped or applied before: the primary reads only
// the unsent suffix of its log, together with the epoch it belongs to
// (wal.Manager.DurableSince); the replica keeps a parse cursor, decodes only
// the bytes past it with the same tolerant parsers recovery uses
// (wal.ParseSegment, wal.DeserializePrefix), replays the transactions whose
// commit record arrived with wal.Redo, and releases what it has decoded. When
// the primary checkpoints — truncating the log and opening a new epoch — it
// ships the checkpoint-device image, in as many snapshot frames as its size
// takes, and the replica re-seeds from it when the last one lands: exactly
// the crash-recovery path on a fresh engine.
//
// Everything is deterministic by construction: frames travel over a
// server.Transport (the in-proc pipe for drills, TCP for real wires), the
// primary ships in lockstep — one frame, one ack — in fixed replica order,
// and every receive/apply cost is charged to the replica's own hw.Thread. A
// replica's staleness (commit lag, byte lag, pending replay work) is
// therefore an exact, replayable quantity the planner can price with the
// recovery OUs (REPLAY, INDEX_REBUILD, CHECKPOINT) when it picks a promotion
// target or schedules a checkpoint.
package repl
