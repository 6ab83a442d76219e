package landmark_test

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"ssrq/internal/gen"
	"ssrq/internal/graph"
	"ssrq/internal/landmark"
)

// landmarkFingerprint hashes a landmark Set into one FNV-1a value: the
// landmark vertex IDs exactly, then every table entry quantized to float32,
// the convention of internal/gen's dataset fingerprints (fused multiply-add
// may move last-ulp float64 bits of synthesized weights between platforms;
// any real drift in selection or in the sweeps moves far more).
func landmarkFingerprint(s *landmark.Set) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	w64(uint64(s.M()))
	w64(uint64(s.NumVertices()))
	for _, v := range s.Vertices() {
		w64(uint64(uint32(v)))
	}
	for j := 0; j < s.M(); j++ {
		for v := 0; v < s.NumVertices(); v++ {
			w64(uint64(math.Float32bits(float32(s.VertexRow(graph.VertexID(v))[j]))))
		}
	}
	return h.Sum64()
}

// TestGoldenLandmarkSelection pins farthest-first selection and its distance
// tables to golden fingerprints. Selection is a chain of full shortest-path
// sweeps, each choosing the next landmark from the previous tables, so a
// kernel that returned different distances — or tied differently in
// argmaxDist — changes the chosen vertices and every table after them.
// The constants must only change together with an intended change of the
// selection rule.
func TestGoldenLandmarkSelection(t *testing.T) {
	golden := map[string]uint64{
		"gowalla": 0x7b4fadd8b678221f,
		"urban":   0xd67c72d79415cc0e,
	}
	for _, p := range []gen.Preset{gen.GowallaPreset, gen.UrbanPreset} {
		ds, err := p.Dataset(2000, 42)
		if err != nil {
			t.Fatal(err)
		}
		s, err := landmark.Select(ds.G, 8, landmark.Farthest, 42)
		if err != nil {
			t.Fatal(err)
		}
		if got := landmarkFingerprint(s); got != golden[p.Name] {
			t.Errorf("%s(n=2000, seed=42) M=8 farthest: landmarks %v, fingerprint %#x, want %#x — landmark selection is no longer bit-stable",
				p.Name, s.Vertices(), got, golden[p.Name])
		}
	}
}
