package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckDirFindsMissingDocs feeds a synthetic package with every flavor
// of documented and undocumented declaration.
func TestCheckDirFindsMissingDocs(t *testing.T) {
	dir := t.TempDir()
	src := `package sample

// Documented is fine.
func Documented() {}

func Missing() {}

func unexported() {}

// T is documented; its method is not.
type T struct{}

func (T) Method() {}

type MissingType struct{}

// Group doc covers every member.
const (
	A = 1
	B = 2
)

var (
	MissingVar = 3
	// DocumentedVar has a spec comment.
	DocumentedVar = 4
	TrailingVar   = 5 // a trailing comment also counts
)
`
	if err := os.WriteFile(filepath.Join(dir, "sample.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Test files are excluded from the check.
	testSrc := "package sample\n\nfunc ExportedTestHelper() {}\n"
	if err := os.WriteFile(filepath.Join(dir, "sample_test.go"), []byte(testSrc), 0o644); err != nil {
		t.Fatal(err)
	}

	missing, err := checkDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"Missing", "Method", "MissingType", "MissingVar"}
	if len(missing) != len(wantNames) {
		t.Fatalf("got %d findings, want %d:\n%s", len(missing), len(wantNames), strings.Join(missing, "\n"))
	}
	for i, name := range wantNames {
		if !strings.Contains(missing[i], name) {
			t.Errorf("finding %d = %q, want mention of %s", i, missing[i], name)
		}
	}
}

// TestContractPackagesAreClean runs the real check over the packages CI
// gates on, so a missing doc comment fails the test suite before CI.
func TestContractPackagesAreClean(t *testing.T) {
	for _, pkg := range contractPackages {
		dir := "../../" + pkg
		missing, err := checkDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(missing) > 0 {
			t.Errorf("%s:\n%s", dir, strings.Join(missing, "\n"))
		}
	}
}
