package network

import (
	"fmt"
	"strconv"
	"strings"
)

// FormatText renders a network in the plain text interchange format
// shared by the conformance harness's shrunken reproducers and the
// service layer's "net" model source:
//
//	# comment
//	species <name> <init>
//	reaction <name> <rate> : A B -> C D
//
// Species and rate names follow the RDL rules (see AddSpecies and
// AddReaction) and reaction names must be whitespace-free; a reaction's
// product list may be empty. The format is deliberately minimal —
// reproducers should be readable at a glance and trivially replayable.
func FormatText(net *Network) string {
	var b strings.Builder
	b.WriteString("# rms network\n")
	for _, s := range net.Species {
		fmt.Fprintf(&b, "species %s %s\n", s.Name, strconv.FormatFloat(s.Init, 'g', -1, 64))
	}
	for _, r := range net.Reactions {
		fmt.Fprintf(&b, "reaction %s %s : %s -> %s\n",
			r.Name, r.Rate, strings.Join(r.Consumed, " "), strings.Join(r.Produced, " "))
	}
	return b.String()
}

// ParseText parses the FormatText representation. An error names the
// offending line.
func ParseText(src string) (*Network, error) {
	net := New()
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "species":
			if len(fields) != 3 {
				return nil, fmt.Errorf("line %d: want 'species NAME INIT', got %q", ln+1, line)
			}
			init, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: bad init: %w", ln+1, err)
			}
			if _, err := net.AddSpecies(fields[1], "", init); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
		case "reaction":
			if len(fields) < 5 || fields[3] != ":" {
				return nil, fmt.Errorf("line %d: want 'reaction NAME RATE : A .. -> ..', got %q", ln+1, line)
			}
			rest := fields[4:]
			arrow := -1
			for i, f := range rest {
				if f == "->" {
					arrow = i
					break
				}
			}
			if arrow < 0 {
				return nil, fmt.Errorf("line %d: missing '->'", ln+1)
			}
			consumed := rest[:arrow]
			produced := rest[arrow+1:]
			if _, err := net.AddReaction(fields[1], fields[2], consumed, produced); err != nil {
				return nil, fmt.Errorf("line %d: %w", ln+1, err)
			}
		default:
			return nil, fmt.Errorf("line %d: unknown directive %q", ln+1, fields[0])
		}
	}
	if len(net.Species) == 0 {
		return nil, fmt.Errorf("network: empty network text")
	}
	return net, nil
}
