package config

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzConfigRoundTrip checks that every document Parse accepts has a
// stable canonical form: MarshalYAML renders it, Parse reads the
// rendering back, the re-rendering is byte-identical, and ContentHash —
// the scenario identity the corpus, result cache and serve daemon key
// on — agrees on both sides. lumina-serve parses scenarios taken from
// the network, so this runs on arbitrary bytes. Seeds are the shipped
// configs and corpus scenarios.
//
//	go test -run '^$' -fuzz FuzzConfigRoundTrip -fuzztime=20s ./internal/config
func FuzzConfigRoundTrip(f *testing.F) {
	var seeds []string
	for _, pat := range []string{"../../configs/*.yaml", "../../corpus/*/scenario.yaml"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, m...)
	}
	if len(seeds) == 0 {
		f.Fatal("no seed scenarios found")
	}
	for _, p := range seeds {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := Parse(data)
		if err != nil {
			return
		}
		y, err := cfg.MarshalYAML()
		if err != nil {
			t.Fatalf("marshal of a parsed config: %v", err)
		}
		back, err := Parse(y)
		if err != nil {
			t.Fatalf("re-parse of the canonical rendering: %v\n%s", err, y)
		}
		y2, err := back.MarshalYAML()
		if err != nil {
			t.Fatalf("marshal after round trip: %v", err)
		}
		if !bytes.Equal(y, y2) {
			t.Fatalf("canonical rendering is not a fixed point:\n%s\n---\n%s", y, y2)
		}
		h1, err := ContentHash(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := ContentHash(back)
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("content hash %s before the round trip, %s after", h1, h2)
		}
	})
}
