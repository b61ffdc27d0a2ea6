package network_test

import (
	"math/rand"
	"strings"
	"testing"

	"rms/internal/conformance"
	"rms/internal/network"
	"rms/internal/rdl"
	"rms/internal/vulcan"
)

// Network text whose names break the RDL naming rules would compile to a
// wrong model, so it fails to parse, naming the offending line.
func TestParseTextRejectsAmbiguousNames(t *testing.T) {
	cases := []struct{ name, src, line string }{
		// A species "A*B" has the product key of A·B: dC/dt would come
		// out as 2*k1*A*B.
		{"product-shaped species", "species A 2\nspecies B 3\nspecies A*B 1\nspecies C 4\n" +
			"reaction r1 k1 : A B -> C\nreaction r2 k1 : A*B -> C\n", "line 3"},
		// A species "k1" would pass for the rate constant k1.
		{"rate-shaped species", "species A 2\nspecies k1 3\nreaction r1 k1 : A ->\n", "line 2"},
		{"species not an identifier", "species A 2\nspecies 2B 1\n", "line 2"},
		{"species with a dash", "species A 2\nspecies B-1 1\n", "line 2"},
		{"rate without the convention", "species A 2\n# decay\nreaction r1 rate : A ->\n", "line 3"},
		{"rate not an identifier", "species A 2\nspecies B 0\nreaction r1 k1*A : A -> B\n", "line 3"},
	}
	for _, c := range cases {
		_, err := network.ParseText(c.src)
		if err == nil {
			t.Errorf("%s: parsed", c.name)
			continue
		}
		if !strings.HasPrefix(err.Error(), c.line+":") {
			t.Errorf("%s: error %q does not name %s", c.name, err, c.line)
		}
	}
}

// The names the vulcanization and conformance generators use follow the
// rules, so their network text round-trips.
func TestParseTextRoundTripsGeneratedNetworks(t *testing.T) {
	var nets []*network.Network
	for _, v := range []int{8, 12, 35} {
		net, err := vulcan.Network(v)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10; i++ {
		nets = append(nets, conformance.RandomNetwork(rng, 12))
	}
	// RDL networks name their variant and forall instances from the
	// instance variables.
	var rdlSources []string
	for _, v := range []int{8, 10, 14} {
		rdlSources = append(rdlSources, vulcan.RDLSource(v))
	}
	for i := 0; i < 10; i++ {
		rdlSources = append(rdlSources, conformance.RandomRDL(rng))
	}
	for _, src := range rdlSources {
		prog, err := rdl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		net, err := network.Generate(prog)
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	for i, net := range nets {
		text := network.FormatText(net)
		back, err := network.ParseText(text)
		if err != nil {
			t.Fatalf("network %d: %v", i, err)
		}
		if got := network.FormatText(back); got != text {
			t.Fatalf("network %d does not round-trip", i)
		}
	}
}

func TestAddRejectsAmbiguousNames(t *testing.T) {
	n := network.New()
	for _, name := range []string{"", "A*B", "K_A", "k2", "K", "1A", "A B"} {
		if _, err := n.AddSpecies(name, "", 1); err == nil {
			t.Errorf("AddSpecies(%q) accepted", name)
		}
	}
	for _, name := range []string{"A", "B_2", "_x", "Kx", "kf", "S8"} {
		if _, err := n.AddSpecies(name, "", 1); err != nil {
			t.Errorf("AddSpecies(%q): %v", name, err)
		}
	}
	for _, rate := range []string{"", "r1", "kf", "k1*A", "K_A B"} {
		if _, err := n.AddReaction("r", rate, []string{"A"}, nil); err == nil {
			t.Errorf("AddReaction with rate %q accepted", rate)
		}
	}
	for _, rate := range []string{"K", "k1", "K_sc_6", "k_2"} {
		if _, err := n.AddReaction("r", rate, []string{"A"}, nil); err != nil {
			t.Errorf("AddReaction with rate %q: %v", rate, err)
		}
	}
}
