package main

import (
	"strings"
	"testing"

	"groundhog/internal/experiments"
)

func TestUnknownExperimentPointsAtList(t *testing.T) {
	err := run(experiments.Quick(), "no-such-experiment", true, t.TempDir())
	if err == nil || !strings.Contains(err.Error(), "try -list") {
		t.Fatalf("run(unknown) = %v, want an error naming -list", err)
	}
}
