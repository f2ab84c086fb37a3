package harness

import (
	"bufio"
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"paxq/internal/centeval"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/pax"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// siteProc is one running paxsite process and the address it serves on.
type siteProc struct {
	cmd  *exec.Cmd
	addr string
}

func (p *siteProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// startPaxsite launches the real paxsite binary serving the given
// fragments and waits for its ready line to learn the bound address.
func startPaxsite(t *testing.T, bin, fragDir string, sid dist.SiteID, frags []fragment.FragID, listen string) *siteProc {
	t.Helper()
	ids := make([]string, len(frags))
	for i, f := range frags {
		ids[i] = strconv.Itoa(int(f))
	}
	cmd := exec.Command(bin,
		"-dir", fragDir,
		"-frags", strings.Join(ids, ","),
		"-listen", listen,
		"-site", strconv.Itoa(int(sid)))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatalf("start paxsite for site %d: %v", sid, err)
	}
	ready := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		ready <- strings.TrimSpace(line)
	}()
	select {
	case line := <-ready:
		i := strings.LastIndex(line, " on ")
		if i < 0 {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("paxsite site %d did not report an address: %q", sid, line)
		}
		return &siteProc{cmd: cmd, addr: line[i+len(" on "):]}
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("paxsite site %d did not become ready", sid)
		return nil
	}
}

// TestProcessKillFailover kills and restarts real paxsite OS processes
// under a replicated coordinator: the same failover machinery that the
// in-harness TCP schedules exercise against in-test servers must hold
// against actual site processes — SIGKILLed mid-deployment, then
// restarted on the same address with all in-memory state gone — with the
// answers byte-identical to the centralized evaluator throughout.
func TestProcessKillFailover(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH; cannot build paxsite")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "paxsite")
	if out, err := exec.Command(gobin, "build", "-o", bin, "paxq/cmd/paxsite").CombinedOutput(); err != nil {
		t.Skipf("building paxsite: %v\n%s", err, out)
	}

	tree := testutil.PaperTree()
	ft, err := fragment.Cut(tree, fragment.RandomCuts(tree, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	fragDir := filepath.Join(dir, "frags")
	if err := ft.Save(fragDir); err != nil {
		t.Fatal(err)
	}
	// Two replica groups of two: killing any single site leaves its whole
	// fragment set served by its twin.
	topo := pax.RoundRobinReplicated(ft, 2, 2)

	procs := make(map[dist.SiteID]*siteProc)
	addrs := make(map[dist.SiteID]string)
	t.Cleanup(func() {
		for _, p := range procs {
			p.kill()
		}
	})
	for _, sid := range topo.Sites() {
		p := startPaxsite(t, bin, fragDir, sid, topo.FragsAt(sid), "127.0.0.1:0")
		procs[sid] = p
		addrs[sid] = p.addr
	}

	tcp := dist.NewTCP(addrs)
	defer tcp.Close()
	eng := pax.NewEngine(topo, tcp, pax.WithMaxAttempts(4))

	query := `//broker[//stock/code = "GOOG"]/name`
	c, err := xpath.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]xmltree.NodeID(nil), centeval.EvalVector(tree, c)...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	origins := ft.Origins()

	run := func(phase string) *pax.Result {
		t.Helper()
		out, err := eng.RunContext(context.Background(), query, pax.Options{Algorithm: pax.PaX3})
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if got := origAnswerIDs(origins, out.Answers); !testutil.EqualIDs(got, want) {
			t.Fatalf("%s: answers %v, want %v", phase, got, want)
		}
		return out
	}

	// Healthy fleet: no failovers, paper visit bound holds exactly.
	out := run("healthy fleet")
	if out.Failovers != 0 || out.MaxVisits > 3 {
		t.Fatalf("healthy fleet: Failovers=%d MaxVisits=%d", out.Failovers, out.MaxVisits)
	}

	// SIGKILL the primary OS process of group 0. Pooled connections to it
	// die; the coordinator must rotate to the surviving twin.
	victim := topo.Primaries()[0]
	procs[victim].kill()
	delete(procs, victim)
	out = run(fmt.Sprintf("after killing site %d's process", victim))
	if out.Failovers == 0 {
		t.Errorf("query after process kill reported no failovers")
	}
	if bound := 3 * (1 + out.Retries); out.MaxVisits > bound {
		t.Errorf("after kill: MaxVisits %d > B(1+Retries) = %d", out.MaxVisits, bound)
	}

	// Restart the dead site as a fresh process on the same address — all
	// cache state gone — and query again: the fleet is whole,
	// the answers unchanged.
	procs[victim] = startPaxsite(t, bin, fragDir, victim, topo.FragsAt(victim), addrs[victim])
	run(fmt.Sprintf("after restarting site %d's process", victim))

	if st := eng.FailoverStats(); st.Failovers == 0 || st.DeadSites == 0 {
		t.Errorf("engine failover stats did not record the process kill: %+v", st)
	}
}
