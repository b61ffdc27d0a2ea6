package conformance

import (
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
)

// Format→Parse→Format is a fixpoint, and the parsed network matches the
// original structurally.
func TestNetworkRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		net := RandomNetwork(rand.New(rand.NewSource(seed)), 5+int(seed))
		text := FormatNetwork(net)
		back, err := ParseNetwork(text)
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, text)
		}
		if again := FormatNetwork(back); again != text {
			t.Errorf("seed %d: format not a fixpoint:\n%s\nvs\n%s", seed, text, again)
		}
		rec := &Recorder{}
		if !sameNetwork(net, back, rec) {
			t.Errorf("seed %d: %v", seed, rec.Failures())
		}
	}
}

func TestParseNetworkErrors(t *testing.T) {
	cases := []string{
		"",                                 // empty
		"species A",                        // missing init
		"species A x",                      // bad float
		"reaction r K : A -> B",            // unknown species
		"species A 1\nreaction r K A -> B", // missing colon
		"species A 1\nreaction r K : -> A", // nothing consumed
		"bogus directive",                  // unknown directive
		"species A 1\nspecies A 2",         // duplicate species
	}
	for _, src := range cases {
		if _, err := ParseNetwork(src); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

func TestWriteReadNetworkFile(t *testing.T) {
	net := RandomNetwork(rand.New(rand.NewSource(9)), 6)
	path := filepath.Join(t.TempDir(), "n.net")
	if err := WriteNetworkFile(path, net); err != nil {
		t.Fatal(err)
	}
	back, err := ReadNetworkFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if FormatNetwork(back) != FormatNetwork(net) {
		t.Error("file round trip drifted")
	}
}

func TestParseNetworkComments(t *testing.T) {
	src := "# header\n\nspecies A 1.5\n# mid\nreaction r K_1 : A -> \n"
	net, err := ParseNetwork(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Species) != 1 || len(net.Reactions) != 1 {
		t.Fatalf("parsed %d species, %d reactions", len(net.Species), len(net.Reactions))
	}
	if len(net.Reactions[0].Produced) != 0 {
		t.Error("empty product list not preserved")
	}
	if !strings.Contains(FormatNetwork(net), "-> \n") {
		t.Log(FormatNetwork(net)) // trailing space form is fine either way
	}
}
