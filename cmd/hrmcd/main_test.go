package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The config file is refused when it names a key the daemon does not
// have, as the control API refuses a flow spec with one: a misspelt or
// retired setting (retention is the -retention flag) must not be
// silently ignored.
func TestConfigRejectsUnknownKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hrmcd.json")
	if err := os.WriteFile(path, []byte(`{"retention_sec": 3, "groups": []}`), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadConfig(path); err == nil || !strings.Contains(err.Error(), "retention_sec") {
		t.Errorf("loadConfig = %v, want an unknown-field error naming retention_sec", err)
	}
	if err := os.WriteFile(path, []byte(exampleConfig), 0o600); err != nil {
		t.Fatal(err)
	}
	if cfg, err := loadConfig(path); err != nil || len(cfg.Groups) != 3 {
		t.Errorf("example config: %v, %+v", err, cfg)
	}
}
