package core

import (
	"errors"
	"testing"
)

// TestValidateWrapsErrBadConfig: every rejection, whatever the field, is
// detectable with errors.Is(err, ErrBadConfig) — callers never need to
// match message text.
func TestValidateWrapsErrBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"no ports", Config{}},
		{"one stage", Config{Ports: 1, Stages: 1}},
		{"word too wide", Config{Ports: 2, WordBits: 65}},
		{"negative cells", Config{Ports: 2, Cells: -1}},
		{"stages below 2n", Config{Ports: 4, Stages: 6}},
		{"negative link pipeline", Config{Ports: 2, LinkPipeline: -1}},
		{"link pipeline past 64", Config{Ports: 2, LinkPipeline: 65}},
		{"negative VCs", Config{Ports: 2, VCs: -1}},
	} {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: invalid config accepted: %+v", tc.name, tc.cfg)
			continue
		}
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: error %v does not wrap ErrBadConfig", tc.name, err)
		}
		if _, nerr := New(tc.cfg); !errors.Is(nerr, ErrBadConfig) {
			t.Errorf("%s: New error %v does not wrap ErrBadConfig", tc.name, nerr)
		}
	}
	if err := (Config{Ports: 2, WordBits: 16, Cells: 8, ECC: true}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}
