package fragment

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"paxq/internal/arena"
	"paxq/internal/xmltree"
)

// RefLabel is the element name that stands for a virtual node in a
// fragment's file form (see Fragment.XML), `<fragment-ref ref="K"/>`, on
// disk and on the wire alike. The name is reserved: Cut rejects a
// document that uses it as a real element, and an edit cannot insert or
// rename to it.
const RefLabel = "fragment-ref"

// ErrReservedLabel is returned by Cut for a document with a RefLabel
// element.
var ErrReservedLabel = errors.New(RefLabel + " is a reserved element name")

// ManifestEntry describes one fragment in a saved fragmentation.
type ManifestEntry struct {
	ID         FragID   `json:"id"`
	Parent     FragID   `json:"parent"` // NoFrag for the root fragment
	File       string   `json:"file"`
	RootLabel  string   `json:"rootLabel"`
	Annotation []string `json:"annotation,omitempty"`
	Children   []FragID `json:"children,omitempty"`
	// Version is the fragment's edit version at save time (see
	// Fragment.Version); omitted while zero for manifest compatibility.
	Version uint64 `json:"version,omitempty"`
}

// Manifest indexes a fragmentation saved to a directory: the deployment
// unit a paxsite server loads fragments from and a coordinator loads the
// fragment-tree skeleton from.
type Manifest struct {
	Entries []ManifestEntry `json:"fragments"`
}

// ManifestName is the file name of the manifest within a save directory.
const ManifestName = "manifest.json"

// Save writes every fragment in its file form (Fragment.XML) plus a
// manifest.json into dir, which is created if needed.
func (ft *Fragmentation) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fragment: save: %w", err)
	}
	var m Manifest
	for _, f := range ft.Frags {
		file := fmt.Sprintf("fragment-%d.xml", f.ID)
		if err := os.WriteFile(filepath.Join(dir, file), []byte(f.XML()), 0o644); err != nil {
			return fmt.Errorf("fragment: save fragment %d: %w", f.ID, err)
		}
		m.Entries = append(m.Entries, ManifestEntry{
			ID:         f.ID,
			Parent:     f.Parent,
			File:       file,
			RootLabel:  f.Tree.LabelOf(int(RootNode)),
			Annotation: f.Annotation,
			Children:   append([]FragID(nil), ft.Children(f.ID)...),
			Version:    f.Version,
		})
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), data, 0o644)
}

// ReadFragment reads fragment id, one of the n fragments of a
// fragmentation, in its file form (see Fragment.XML). Each
// <fragment-ref ref="K"/> becomes a virtual node standing for
// sub-fragment K; it must be an empty non-root element with 0 <= K < n.
// The caller fills in Parent, Annotation and Version, and Assemble checks
// the references against them.
func ReadFragment(r io.Reader, id FragID, n int) (*Fragment, error) {
	tree, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	f := &Fragment{ID: id, virtuals: make(map[xmltree.NodeID]FragID)}
	for _, nd := range tree.PreorderNodes() {
		if nd.Kind != xmltree.Element || nd.Label != RefLabel {
			continue
		}
		ref := -1
		for _, a := range nd.Attrs {
			if a.Name == "ref" {
				if ref, err = strconv.Atoi(a.Value); err != nil {
					ref = -1
				}
			}
		}
		if ref < 0 || ref >= n || nd.Parent == nil || len(nd.Children) > 0 {
			return nil, fmt.Errorf("fragment %d: bad %s element %v", id, RefLabel, nd.Attrs)
		}
		nd.Label, nd.Attrs = VirtualLabel, nil
		f.virtuals[nd.ID] = FragID(ref)
	}
	f.ArenaView = newArenaView(arena.FromTree(tree), f.virtuals)
	return f, nil
}

// LoadManifest reads a manifest.json.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("fragment: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("fragment: parse manifest: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func (m *Manifest) validate() error {
	if len(m.Entries) == 0 {
		return fmt.Errorf("fragment: manifest has no fragments")
	}
	sort.Slice(m.Entries, func(i, j int) bool { return m.Entries[i].ID < m.Entries[j].ID })
	for i, e := range m.Entries {
		if int(e.ID) != i {
			return fmt.Errorf("fragment: manifest fragment IDs not dense at %d", e.ID)
		}
		if e.ID == RootFrag {
			if e.Parent != NoFrag {
				return fmt.Errorf("fragment: root fragment has parent %d", e.Parent)
			}
		} else if e.Parent < 0 || e.Parent >= e.ID {
			return fmt.Errorf("fragment: fragment %d has invalid parent %d", e.ID, e.Parent)
		}
	}
	return nil
}

// Len returns the number of fragments in the manifest.
func (m *Manifest) Len() int { return len(m.Entries) }

// LoadFragment loads one fragment's tree from dir (see ReadFragment).
func (m *Manifest) LoadFragment(dir string, id FragID) (*Fragment, error) {
	if int(id) >= len(m.Entries) || id < 0 {
		return nil, fmt.Errorf("fragment: no fragment %d in manifest", id)
	}
	e := m.Entries[id]
	in, err := os.Open(filepath.Join(dir, e.File))
	if err != nil {
		return nil, fmt.Errorf("fragment: %w", err)
	}
	defer in.Close()
	f, err := ReadFragment(in, id, len(m.Entries))
	if err != nil {
		return nil, fmt.Errorf("fragment: %s: %w", e.File, err)
	}
	f.Parent, f.Annotation, f.Version = e.Parent, e.Annotation, e.Version
	return f, nil
}

// Load reads the whole fragmentation back from dir.
func Load(dir string) (*Fragmentation, error) {
	m, err := LoadManifest(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	frags := make([]*Fragment, m.Len())
	for i := range frags {
		f, err := m.LoadFragment(dir, FragID(i))
		if err != nil {
			return nil, err
		}
		frags[i] = f
	}
	return Assemble(frags)
}

// Skeleton builds a coordinator-side Fragmentation from the manifest alone:
// each fragment tree is a placeholder (root element plus one virtual child
// per sub-fragment), sufficient for relevance analysis, variable naming and
// evalFT — the coordinator never touches fragment data.
func (m *Manifest) Skeleton() (*Fragmentation, error) {
	frags := make([]*Fragment, m.Len())
	for i, e := range m.Entries {
		f := &Fragment{ID: e.ID, Parent: e.Parent, Annotation: e.Annotation, Version: e.Version, virtuals: make(map[xmltree.NodeID]FragID)}
		b := arena.NewBuilder(1 + len(e.Children))
		b.Open(e.RootLabel, nil)
		for _, child := range e.Children {
			f.virtuals[xmltree.NodeID(b.Open(VirtualLabel, nil))] = child
			b.Close()
		}
		f.ArenaView = newArenaView(b.Tree(), f.virtuals)
		frags[i] = f
	}
	return Assemble(frags)
}

// Assemble wires a Fragmentation from fragments read back (Load, a
// NaiveCentralized fetch), recomputing the children index and checking
// that the pieces form one tree: frags[i] is fragment i, and every
// non-root fragment is referenced by exactly one virtual node, in its
// parent.
func Assemble(frags []*Fragment) (*Fragmentation, error) {
	ft := &Fragmentation{Frags: frags, children: make([][]FragID, len(frags))}
	for i, f := range frags {
		if f == nil || int(f.ID) != i {
			return nil, fmt.Errorf("fragment: fragment %d missing", i)
		}
	}
	refs := make([]int, len(frags))
	for _, f := range frags {
		for vid, child := range f.virtuals {
			if int(child) >= len(frags) || child <= f.ID {
				return nil, fmt.Errorf("fragment: fragment %d references invalid sub-fragment %d", f.ID, child)
			}
			cf := frags[child]
			if cf.Parent != f.ID {
				return nil, fmt.Errorf("fragment: fragment %d claims child %d whose parent is %d", f.ID, child, cf.Parent)
			}
			cf.ParentVirtual = vid
			ft.children[f.ID] = append(ft.children[f.ID], child)
			refs[child]++
		}
	}
	for _, f := range frags {
		sort.Slice(ft.children[f.ID], func(i, j int) bool { return ft.children[f.ID][i] < ft.children[f.ID][j] })
		if f.ID != RootFrag && refs[f.ID] != 1 {
			return nil, fmt.Errorf("fragment: fragment %d referenced %d times by its parent %d, want once", f.ID, refs[f.ID], f.Parent)
		}
	}
	return ft, nil
}
