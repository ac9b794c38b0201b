package experiments

import (
	"strings"
	"testing"
)

func TestAblationTimeVirtCollapsesGCPenalty(t *testing.T) {
	tb, err := quick().timeVirt("img-resize (n)", "base64 (n)")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(tb.Render()), "\n")[3:]
	for _, line := range lines {
		f := strings.Fields(line)
		ghOv := cellValue(t, f[len(f)-2])
		tvOv := cellValue(t, f[len(f)-1])
		if tvOv >= ghOv {
			t.Fatalf("time virtualization did not reduce overhead: %s", line)
		}
	}
	// img-resize specifically: the large GC penalty must collapse to
	// single digits.
	first := strings.Fields(lines[0])
	if ov := cellValue(t, first[len(first)-1]); ov > 10 {
		t.Fatalf("img-resize overhead with time virtualization = %+.1f%%, want single digits", ov)
	}
}
