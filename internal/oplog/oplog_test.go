package oplog

import (
	"bytes"
	"testing"

	"ssrq/internal/aggindex"
	"ssrq/internal/spatial"
)

func sampleRecords() []Record {
	return []Record{
		{Seq: 1, Kind: KindMove, ID: 7, X: 0.25, Y: 0.75},
		{Seq: 2, Kind: KindUnlocate, ID: 7},
		{Seq: 3, Kind: KindEdgeUpsert, U: 1, V: 9, W: 0.5},
		{Seq: 4, Kind: KindEdgeRemove, U: 1, V: 9},
		{Seq: 1<<63 + 5, Kind: KindMove, ID: 1<<31 - 1, X: -1.5, Y: 1e300},
	}
}

func TestRecordRoundtrip(t *testing.T) {
	var buf []byte
	recs := sampleRecords()
	for _, r := range recs {
		plen, _ := payloadLen(r.Kind)
		if got, want := headerSize+plen+crcSize, len(r.Append(nil)); got != want {
			t.Fatalf("wire size %d but Append wrote %d", got, want)
		}
		buf = r.Append(buf)
	}
	for i, want := range recs {
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		// Re-encoding must be byte-identical.
		if !bytes.Equal(got.Append(nil), buf[:n]) {
			t.Fatalf("record %d: re-encode differs", i)
		}
		buf = buf[n:]
	}
	if len(buf) != 0 {
		t.Fatalf("%d trailing bytes", len(buf))
	}
}

func TestDecodeTruncated(t *testing.T) {
	full := Record{Seq: 42, Kind: KindMove, ID: 3, X: 0.1, Y: 0.2}.Append(nil)
	for n := 0; n < len(full); n++ {
		if _, _, err := Decode(full[:n]); err != ErrTruncated {
			t.Fatalf("prefix of %d/%d bytes: got %v, want ErrTruncated", n, len(full), err)
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	full := Record{Seq: 42, Kind: KindEdgeUpsert, U: 1, V: 2, W: 0.3}.Append(nil)
	for i := range full {
		mut := append([]byte(nil), full...)
		mut[i] ^= 0xff
		r, n, err := Decode(mut)
		if err == nil {
			t.Fatalf("flipped byte %d: decoded %+v (%d bytes) without error", i, r, n)
		}
		if err != ErrCorrupt && err != ErrTruncated {
			t.Fatalf("flipped byte %d: unexpected error %v", i, err)
		}
	}
	// Unknown kind and bad version are corrupt even with a valid checksum.
	if _, _, err := Decode([]byte{Version, 200, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err != ErrCorrupt {
		t.Fatalf("unknown kind: got %v", err)
	}
	if _, _, err := Decode(append([]byte{99}, full[1:]...)); err != ErrCorrupt {
		t.Fatalf("bad version: got %v", err)
	}
}

func TestOpConversion(t *testing.T) {
	ops := []aggindex.Op{
		{ID: 4, To: spatial.Point{X: 0.5, Y: 0.5}},
		{ID: 4, Remove: true},
		{Kind: aggindex.OpEdgeUpsert, U: 2, V: 8, W: 0.9},
		{Kind: aggindex.OpEdgeRemove, U: 2, V: 8},
	}
	recs := FromOps(ops)
	if len(recs) != len(ops) {
		t.Fatalf("FromOps dropped records: %d != %d", len(recs), len(ops))
	}
	back := Ops(recs)
	for i := range ops {
		if back[i] != ops[i] {
			t.Fatalf("op %d: got %+v want %+v", i, back[i], ops[i])
		}
	}
}

func TestDecodeEmptyAndGarbage(t *testing.T) {
	if _, _, err := Decode(nil); err != ErrTruncated {
		t.Fatalf("nil: got %v", err)
	}
	garbage := bytes.Repeat([]byte{0xAB}, 64)
	if _, _, err := Decode(garbage); err != ErrCorrupt {
		t.Fatalf("garbage: got %v", err)
	}
}
