package fragment

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paxq/internal/testutil"
	"paxq/internal/xmltree"
)

func savedFixture(t *testing.T) (string, *Fragmentation, *xmltree.Tree) {
	t.Helper()
	tr := testutil.PaperTree()
	ft, err := Cut(tr, RandomCuts(tr, 4, 21))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ft.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir, ft, tr
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir, ft, tr := savedFixture(t)
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ft.Len() {
		t.Fatalf("fragments = %d want %d", back.Len(), ft.Len())
	}
	for i, f := range back.Frags {
		orig := ft.Frags[i]
		if f.Parent != orig.Parent || len(f.Virtuals()) != len(orig.Virtuals()) {
			t.Errorf("fragment %d structure mismatch", i)
		}
		if got, want := f.Tree.LabelOf(0), orig.Tree.LabelOf(0); got != want {
			t.Errorf("fragment %d root %q want %q", i, got, want)
		}
		for j := range f.Annotation {
			if f.Annotation[j] != orig.Annotation[j] {
				t.Errorf("fragment %d annotation mismatch", i)
			}
		}
	}
	if !xmltree.DeepEqual(back.Reassemble().Root, tr.Root) {
		t.Error("reassembled loaded fragmentation differs from original tree")
	}
}

func TestSkeletonStructure(t *testing.T) {
	dir, ft, _ := savedFixture(t)
	m, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	sk, err := m.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	if sk.Len() != ft.Len() {
		t.Fatalf("skeleton fragments = %d", sk.Len())
	}
	for i, f := range sk.Frags {
		orig := ft.Frags[i]
		if f.Tree.LabelOf(0) != orig.Tree.LabelOf(0) {
			t.Errorf("fragment %d root label %q", i, f.Tree.LabelOf(0))
		}
		if f.NumVirtuals() != orig.NumVirtuals() {
			t.Errorf("fragment %d virtuals = %d want %d", i, f.NumVirtuals(), orig.NumVirtuals())
		}
		if len(sk.Children(FragID(i))) != len(ft.Children(FragID(i))) {
			t.Errorf("fragment %d children mismatch", i)
		}
	}
}

func TestLoadFragmentSelective(t *testing.T) {
	dir, ft, _ := savedFixture(t)
	m, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	f, err := m.LoadFragment(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 1 || f.Tree.LabelOf(0) != ft.Frags[1].Tree.LabelOf(0) {
		t.Errorf("fragment 1 = %+v", f)
	}
	if _, err := m.LoadFragment(dir, FragID(m.Len())); err == nil {
		t.Error("out-of-range fragment must fail")
	}
}

// TestLoadRejectsForgedRefs edits one saved fragment file so that its
// fragment-ref elements describe a different fragment tree: Load must
// refuse each forgery rather than reassemble the wrong document.
func TestLoadRejectsForgedRefs(t *testing.T) {
	dir, ft, _ := savedFixture(t)
	var parent *Fragment
	for _, f := range ft.Frags {
		if f.NumVirtuals() > 0 {
			parent = f
			break
		}
	}
	if parent == nil {
		t.Fatal("fixture has no virtual node")
	}
	path := filepath.Join(dir, fmt.Sprintf("fragment-%d.xml", parent.ID))
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref := fmt.Sprintf(`<fragment-ref ref="%d"/>`, ft.Children(parent.ID)[0])
	if !strings.Contains(string(saved), ref) {
		t.Fatalf("%s does not hold %s", path, ref)
	}
	for name, forged := range map[string]string{
		"referenced twice": strings.Replace(string(saved), ref, ref+ref, 1),
		"unknown fragment": strings.Replace(string(saved), ref, `<fragment-ref ref="99"/>`, 1),
		"non-numeric ref":  strings.Replace(string(saved), ref, `<fragment-ref ref="x"/>`, 1),
		"ref with content": strings.Replace(string(saved), ref, strings.TrimSuffix(ref, "/>")+"><a/></fragment-ref>", 1),
		"ref as root":      ref,
	} {
		if err := os.WriteFile(path, []byte(forged), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(dir); err == nil {
			t.Errorf("%s: Load accepted %q", name, forged)
		}
	}
}

func TestLoadManifestErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadManifest(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing manifest must fail")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := LoadManifest(bad); err == nil {
		t.Error("bad JSON must fail")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"fragments":[]}`), 0o644)
	if _, err := LoadManifest(empty); err == nil {
		t.Error("empty manifest must fail")
	}
	cyclic := filepath.Join(dir, "cyclic.json")
	os.WriteFile(cyclic, []byte(`{"fragments":[{"id":0,"parent":-1,"file":"a","rootLabel":"r"},{"id":1,"parent":2,"file":"b","rootLabel":"x"},{"id":2,"parent":1,"file":"c","rootLabel":"y"}]}`), 0o644)
	if _, err := LoadManifest(cyclic); err == nil {
		t.Error("forward parent must fail validation")
	}
}

func TestSaveLoadSingleFragment(t *testing.T) {
	tr := testutil.PaperTree()
	ft := Whole(tr)
	dir := t.TempDir()
	if err := ft.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 1 || !xmltree.DeepEqual(back.Root().Tree.ToTree().Root, tr.Root) {
		t.Error("single-fragment round trip failed")
	}
}
