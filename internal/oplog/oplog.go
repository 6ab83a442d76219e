// Package oplog defines the canonical, self-describing record for every
// world mutation the engine can apply: locate/move a user, remove a user's
// location, upsert a weighted friendship edge, remove an edge. All mutation
// paths — synchronous and asynchronous batches, journaled in queue order by
// the sharded engine's one writer — reduce to sequences of these four
// records, and recovery replays them through the exact same Apply path that
// live traffic uses.
//
// Records hold NORMALIZED values (coordinates in [0,1]², weights already
// divided by dataset.Norms.Social), i.e. the representation every layer
// below the root API speaks. Replay therefore bypasses the root engine's
// raw→normalized conversion.
//
// Rebalance-driven cross-shard migrations are expressed with the same
// canonical op shape internally (insert@new / remove@old batches of
// aggindex.Op), but they are deliberately NOT sequenced into the durable
// log: they change shard placement, not world state, and replaying their
// remove halves would delete users. The write-ahead log records world
// changes only; a recovered engine re-derives its own placement.
//
// Wire format (version 1, little-endian):
//
//	off 0  uint8   version (= 1)
//	off 1  uint8   kind
//	off 2  uint16  payload length (fixed per kind; self-describing so
//	               future kinds can be skipped by old readers)
//	off 4  uint64  sequence number
//	off 12 payload
//	       Move:       id int32, x float64, y float64   (20 bytes)
//	       Unlocate:   id int32                          (4 bytes)
//	       EdgeUpsert: u int32, v int32, w float64      (16 bytes)
//	       EdgeRemove: u int32, v int32                  (8 bytes)
//	tail   uint32  CRC-32 (IEEE) over every preceding byte of the record
//
// Decode distinguishes a record that is merely incomplete (ErrTruncated —
// the torn tail a crash leaves behind; recovery truncates the file there
// and continues) from one whose bytes are wrong (ErrCorrupt — refused).
package oplog

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"

	"ssrq/internal/aggindex"
	"ssrq/internal/spatial"
)

// Kind discriminates the four world mutations.
type Kind uint8

const (
	// KindMove locates user ID at (X, Y), moving it if already located.
	KindMove Kind = 1
	// KindUnlocate removes user ID's location.
	KindUnlocate Kind = 2
	// KindEdgeUpsert sets edge {U, V} to weight W, inserting it if absent.
	KindEdgeUpsert Kind = 3
	// KindEdgeRemove deletes edge {U, V} (no-op if absent).
	KindEdgeRemove Kind = 4
)

// Version is the current wire-format version.
const Version = 1

const headerSize = 12 // version + kind + payloadLen + seq
const crcSize = 4

// MaxEncodedSize bounds the encoded size of any version-1 record.
const MaxEncodedSize = headerSize + 20 + crcSize

var (
	// ErrTruncated reports a buffer that ends mid-record: the prefix that
	// is present is consistent, there just isn't enough of it. A crashed
	// writer's torn tail decodes to this.
	ErrTruncated = errors.New("oplog: truncated record")
	// ErrCorrupt reports bytes that cannot be a record under any
	// continuation: bad version, unknown kind, wrong payload length for
	// the kind, or checksum mismatch.
	ErrCorrupt = errors.New("oplog: corrupt record")
)

// Record is one sequenced world mutation. Only the fields relevant to Kind
// are meaningful (Move/Unlocate use ID/X/Y; edges use U/V/W).
type Record struct {
	Seq  uint64
	Kind Kind
	ID   int32
	X, Y float64
	U, V int32
	W    float64
}

func payloadLen(k Kind) (int, bool) {
	switch k {
	case KindMove:
		return 20, true
	case KindUnlocate:
		return 4, true
	case KindEdgeUpsert:
		return 16, true
	case KindEdgeRemove:
		return 8, true
	}
	return 0, false
}

// Append encodes r onto b and returns the extended slice.
func (r Record) Append(b []byte) []byte {
	plen, ok := payloadLen(r.Kind)
	if !ok {
		// Unknown kinds cannot be constructed through the public
		// converters; encode as a zero-payload record of the raw kind so
		// the error surfaces at decode rather than panicking a writer.
		plen = 0
	}
	start := len(b)
	b = append(b, Version, byte(r.Kind))
	b = binary.LittleEndian.AppendUint16(b, uint16(plen))
	b = binary.LittleEndian.AppendUint64(b, r.Seq)
	switch r.Kind {
	case KindMove:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.ID))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.X))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Y))
	case KindUnlocate:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.ID))
	case KindEdgeUpsert:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.V))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.W))
	case KindEdgeRemove:
		b = binary.LittleEndian.AppendUint32(b, uint32(r.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(r.V))
	}
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
}

// Decode parses one record from the front of b, returning the record and
// how many bytes it consumed. It returns ErrTruncated when b holds a
// consistent but incomplete prefix and ErrCorrupt when the bytes cannot be
// a valid record.
func Decode(b []byte) (Record, int, error) {
	if len(b) < headerSize {
		return Record{}, 0, ErrTruncated
	}
	if b[0] != Version {
		return Record{}, 0, ErrCorrupt
	}
	k := Kind(b[1])
	want, ok := payloadLen(k)
	if !ok {
		return Record{}, 0, ErrCorrupt
	}
	plen := int(binary.LittleEndian.Uint16(b[2:4]))
	if plen != want {
		return Record{}, 0, ErrCorrupt
	}
	total := headerSize + plen + crcSize
	if len(b) < total {
		return Record{}, 0, ErrTruncated
	}
	if crc32.ChecksumIEEE(b[:total-crcSize]) != binary.LittleEndian.Uint32(b[total-crcSize:total]) {
		return Record{}, 0, ErrCorrupt
	}
	r := Record{
		Seq:  binary.LittleEndian.Uint64(b[4:12]),
		Kind: k,
	}
	p := b[headerSize:]
	switch k {
	case KindMove:
		r.ID = int32(binary.LittleEndian.Uint32(p[0:4]))
		r.X = math.Float64frombits(binary.LittleEndian.Uint64(p[4:12]))
		r.Y = math.Float64frombits(binary.LittleEndian.Uint64(p[12:20]))
	case KindUnlocate:
		r.ID = int32(binary.LittleEndian.Uint32(p[0:4]))
	case KindEdgeUpsert:
		r.U = int32(binary.LittleEndian.Uint32(p[0:4]))
		r.V = int32(binary.LittleEndian.Uint32(p[4:8]))
		r.W = math.Float64frombits(binary.LittleEndian.Uint64(p[8:16]))
	case KindEdgeRemove:
		r.U = int32(binary.LittleEndian.Uint32(p[0:4]))
		r.V = int32(binary.LittleEndian.Uint32(p[4:8]))
	}
	return r, total, nil
}

// FromOp converts one engine op to a record (Seq left zero; the WAL assigns
// it at append time). ok is false for op kinds that have no durable form.
func FromOp(op aggindex.Op) (r Record, ok bool) {
	switch op.Kind {
	case aggindex.OpLocation:
		if op.Remove {
			return Record{Kind: KindUnlocate, ID: op.ID}, true
		}
		return Record{Kind: KindMove, ID: op.ID, X: op.To.X, Y: op.To.Y}, true
	case aggindex.OpEdgeUpsert:
		return Record{Kind: KindEdgeUpsert, U: op.U, V: op.V, W: op.W}, true
	case aggindex.OpEdgeRemove:
		return Record{Kind: KindEdgeRemove, U: op.U, V: op.V}, true
	}
	return Record{}, false
}

// Op converts a record back to the engine op replay feeds to Apply.
func (r Record) Op() aggindex.Op {
	switch r.Kind {
	case KindMove:
		return aggindex.Op{ID: r.ID, To: spatial.Point{X: r.X, Y: r.Y}}
	case KindUnlocate:
		return aggindex.Op{ID: r.ID, Remove: true}
	case KindEdgeUpsert:
		return aggindex.Op{Kind: aggindex.OpEdgeUpsert, U: r.U, V: r.V, W: r.W}
	case KindEdgeRemove:
		return aggindex.Op{Kind: aggindex.OpEdgeRemove, U: r.U, V: r.V}
	}
	return aggindex.Op{}
}

// FromOps converts a batch, skipping ops with no durable form.
func FromOps(ops []aggindex.Op) []Record {
	out := make([]Record, 0, len(ops))
	for _, op := range ops {
		if r, ok := FromOp(op); ok {
			out = append(out, r)
		}
	}
	return out
}

// Ops converts a batch of records to engine ops, preserving order.
func Ops(recs []Record) []aggindex.Op {
	out := make([]aggindex.Op, len(recs))
	for i, r := range recs {
		out[i] = r.Op()
	}
	return out
}
