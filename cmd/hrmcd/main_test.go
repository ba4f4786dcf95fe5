package main

import (
	"testing"
	"time"
)

// -retention 500ms used to round-trip through whole seconds and arrive
// as 0, which the control plane reads as "keep terminal flows forever".
func TestRetentionFlagKeepsSubSecond(t *testing.T) {
	cfg := &Config{RetentionSec: 3}
	if got := cfg.retention(500 * time.Millisecond); got != 500*time.Millisecond {
		t.Errorf("-retention 500ms resolved to %v", got)
	}
	if got := cfg.retention(0); got != 3*time.Second {
		t.Errorf("retention_sec 3 with no flag resolved to %v", got)
	}
}
