package exp

import (
	"bytes"
	"strings"
	"testing"
)

// TestSocialChurnExperiment runs the social churn sweep at micro scale: the
// latency rows must appear for each edge rate, the unthrottled cell must
// actually apply edge ops and advance social epochs, and the built-in
// post-churn brute-force + landmark-admissibility audit must pass.
func TestSocialChurnExperiment(t *testing.T) {
	var buf bytes.Buffer
	s := NewSuite(microScale, 42, &buf)
	s.EdgeRates = []float64{0, -1} // off + unthrottled
	if err := s.Run("socialchurn", false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"social churn", "p99 (ms)", "off", "max", "lm repairs",
		"post-churn brute-force equivalence + landmark admissibility: ok",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("socialchurn output missing %q:\n%s", want, out)
		}
	}
	if len(s.Measurements) != 2 {
		t.Fatalf("%d measurements, want 2 (one AIS series point per cell)", len(s.Measurements))
	}
	// The audit line reports the final social epoch; with an unthrottled
	// churner it must have advanced.
	if strings.Contains(out, "social epoch 0)") {
		t.Fatalf("unthrottled cell never advanced the social epoch:\n%s", out)
	}
}
