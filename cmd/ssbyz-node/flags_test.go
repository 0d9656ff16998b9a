package main

// This test pins README.md's ssbyz-node flag table (the one in the
// "## Running a real cluster" section) to the actual flag set, the same
// discipline as the ssbyz-bench and ssbyz-cluster flag tests: a flag
// added, renamed, or removed without updating the table fails here.

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

// readmeFlagNames extracts the flag names documented in README.md's
// "## Running a real cluster" section: rows shaped `| `-name ...` | meaning |`.
func readmeFlagNames(t *testing.T) map[string]bool {
	t.Helper()
	blob, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	section := string(blob)
	if i := strings.Index(section, "## Running a real cluster"); i >= 0 {
		section = section[i:]
	} else {
		t.Fatal("README.md lost the \"## Running a real cluster\" section")
	}
	if i := strings.Index(section[1:], "\n## "); i >= 0 {
		section = section[:i+1]
	}
	rowRe := regexp.MustCompile("(?m)^\\| `-([a-z0-9-]+)[^`]*` \\|")
	names := make(map[string]bool)
	for _, m := range rowRe.FindAllStringSubmatch(section, -1) {
		names[m[1]] = true
	}
	if len(names) == 0 {
		t.Fatal("no flag-table rows found in README.md's daemon section — did the table move?")
	}
	return names
}

func TestREADMEFlagTableMatchesFlagSet(t *testing.T) {
	fs := flag.NewFlagSet("ssbyz-node", flag.ContinueOnError)
	defineFlags(fs)
	documented := readmeFlagNames(t)
	defined := make(map[string]bool)
	fs.VisitAll(func(f *flag.Flag) { defined[f.Name] = true })

	for name := range defined {
		if !documented[name] {
			t.Errorf("flag -%s is defined but missing from README.md's ssbyz-node flag table", name)
		}
	}
	for name := range documented {
		if !defined[name] {
			t.Errorf("README.md documents flag -%s which ssbyz-node does not define", name)
		}
	}
}
