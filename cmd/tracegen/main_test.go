package main

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

func TestRunRequiresSubcommand(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no subcommand accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

func TestGenInfoInferLocalityRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "t.trace")
	err := run([]string{"gen", "-o", out, "-receivers", "8", "-depth", "3",
		"-packets", "2000", "-losses", "600", "-seed", "3"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(out); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"info", out}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"infer", out}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"locality", out}); err != nil {
		t.Fatal(err)
	}
}

func TestGenRequiresOutput(t *testing.T) {
	if err := run([]string{"gen"}); err == nil {
		t.Fatal("gen without -o accepted")
	}
}

func TestInfoRejectsMissingFile(t *testing.T) {
	if err := run([]string{"info", "/nonexistent/trace"}); err == nil {
		t.Fatal("missing file accepted")
	}
	if err := run([]string{"info"}); err == nil {
		t.Fatal("missing argument accepted")
	}
	if err := run([]string{"infer"}); err == nil {
		t.Fatal("missing argument accepted")
	}
}

func TestCatalogSubcommand(t *testing.T) {
	if err := run([]string{"catalog", "-scale", "0.005"}); err != nil {
		t.Fatal(err)
	}
}

func TestLocalityCatalog(t *testing.T) {
	if err := run([]string{"locality", "-scale", "0.005"}); err != nil {
		t.Fatal(err)
	}
}

// TestFlagSurface pins what each subcommand's -h prints: every flag's
// name, type, default and usage, as the flag package lists them. A
// usage may be reworded; a changed name, type or default breaks the
// scripts that pass it. info and infer take a file and no flags.
func TestFlagSurface(t *testing.T) {
	for _, sub := range []string{"catalog", "gen", "locality"} {
		want, err := os.ReadFile(filepath.Join("testdata", "flags-"+sub+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
		if err != nil {
			t.Fatal(err)
		}
		saved := os.Stderr
		os.Stderr = f
		err = run([]string{sub, "-h"})
		os.Stderr = saved
		f.Close()
		if !errors.Is(err, flag.ErrHelp) {
			t.Fatalf("%s -h returned %v", sub, err)
		}
		got, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s -h printed\n%s\nwant\n%s", sub, got, want)
		}
	}
}
