// Package transport carries EDR's inter-node messages: a small typed
// envelope, a length-prefixed JSON wire codec, and two interchangeable
// fabrics — real TCP sockets (the paper's deployment, §III-C) and an
// in-process fabric for deterministic tests and simulations.
//
// The paper's server design is multithreaded with TCP/IP sockets: a
// ClientListener accepting client requests, a ReplicaListener exchanging
// solution state between replicas, and FileDownload workers streaming the
// selected bytes. This package provides the socket substrate those
// components are built on (see internal/core for the components).
package transport

import (
	"encoding"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
)

// Message is the envelope exchanged between EDR nodes. A message carries
// exactly one body: Body (type-specific JSON, the original codec) or Bin
// (the compact binary codec of binary.go, for the matrix-bearing engine
// verbs). DecodeBody accepts either, so handlers are codec-agnostic.
type Message struct {
	// Type routes the message (e.g. "client.request", "replica.solution",
	// "ring.heartbeat").
	Type string `json:"type"`
	// From names the sending node.
	From string `json:"from"`
	// Body is the type-specific JSON payload.
	Body json.RawMessage `json:"body,omitempty"`
	// Bin is the compact binary payload, used instead of Body when the
	// body type implements encoding.BinaryMarshaler.
	Bin []byte `json:"bin,omitempty"`
}

// BodyLen reports the payload size in bytes, whichever codec carries it.
func (m Message) BodyLen() int { return len(m.Body) + len(m.Bin) }

// NewMessage builds a Message with the body marshaled from v, preferring
// the compact binary codec when v implements encoding.BinaryMarshaler and
// falling back to JSON otherwise. A nil v leaves the body empty.
func NewMessage(msgType, from string, v any) (Message, error) {
	m := Message{Type: msgType, From: from}
	var err error
	if bm, ok := v.(encoding.BinaryMarshaler); ok {
		m.Bin, err = bm.MarshalBinary()
	} else if v != nil {
		m.Body, err = json.Marshal(v)
	}
	if err != nil {
		return Message{}, fmt.Errorf("transport: marshal %s body: %w", msgType, err)
	}
	return m, nil
}

// DecodeBody unmarshals the message body into v, from whichever codec the
// sender used. A binary body requires v to implement
// encoding.BinaryUnmarshaler.
func (m Message) DecodeBody(v any) error {
	if len(m.Bin) > 0 {
		bu, ok := v.(encoding.BinaryUnmarshaler)
		if !ok {
			return fmt.Errorf("transport: %s message has a binary body but %T cannot decode it", m.Type, v)
		}
		if err := bu.UnmarshalBinary(m.Bin); err != nil {
			return fmt.Errorf("transport: decode %s binary body: %w", m.Type, err)
		}
		return nil
	}
	if len(m.Body) == 0 {
		return fmt.Errorf("transport: %s message has empty body", m.Type)
	}
	if err := json.Unmarshal(m.Body, v); err != nil {
		return fmt.Errorf("transport: decode %s body: %w", m.Type, err)
	}
	return nil
}

// MaxFrameBytes bounds a single wire frame. Solution matrices for the
// paper-scale problems are well under this; the bound protects listeners
// from corrupt length prefixes.
const MaxFrameBytes = 64 << 20

// WriteFrame writes m as a 4-byte big-endian length prefix followed by
// the payload. Messages with a binary body use the compact envelope of
// binary.go, flagged by the prefix's top bit; everything else is JSON,
// byte-identical to the original codec.
func WriteFrame(w io.Writer, m Message) error {
	if len(m.Bin) > 0 {
		return writeBinaryFrame(w, m)
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("transport: encode frame: %w", err)
	}
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit %d", len(payload), MaxFrameBytes)
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(len(payload)))
	if _, err := w.Write(prefix[:]); err != nil {
		return fmt.Errorf("transport: write frame prefix: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("transport: write frame payload: %w", err)
	}
	return nil
}

// ReadFrame reads one length-prefixed message written by WriteFrame,
// dispatching on the binary flag bit of the prefix.
func ReadFrame(r io.Reader) (Message, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		return Message{}, err // io.EOF passes through for clean shutdown
	}
	raw := binary.BigEndian.Uint32(prefix[:])
	isBin := raw&binFlag != 0
	n := raw &^ uint32(binFlag)
	if n > MaxFrameBytes {
		return Message{}, fmt.Errorf("transport: frame length %d exceeds limit %d", n, MaxFrameBytes)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return Message{}, fmt.Errorf("transport: read frame payload: %w", err)
	}
	if isBin {
		return decodeBinaryFrame(payload)
	}
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return Message{}, fmt.Errorf("transport: decode frame: %w", err)
	}
	return m, nil
}
