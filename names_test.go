package milan_test

import (
	"go/types"
	"sort"
	"strings"
	"testing"
)

// testSupport lists the exported names of internal/... that keep no caller
// outside their own package, each with its reason.  The link check
// (linkcheck_test.go) takes a function a row covers as listed too.  A key is a package path
// under internal/ (the whole package), or such a path followed by a name
// ("durable/vfs.Fault.Counts").
var testSupport = map[string]string{
	// Test support proper.
	"core/proftest":                    "the property harness the profile index and its fuzz target run against",
	"allocs":                           "the allocation counter the allocation-budget tests pin",
	"campaign.DecodeArtifact":          "the decoder FuzzArtifactDecode fuzzes; a breach artifact is read back by tests",
	"campaign.ReplayArtifact":          "localizes a decoded breach artifact; DecodeArtifact's round trip and campaignrunner's artifacts are checked with it",
	"obs/slo.DecodeSnapshot":           "the decoder the flight-snapshot fuzz target fuzzes",
	"obs.MaxArtifact":                  "the artifact size bound; campaign's decoder test holds DecodeArtifact to it",
	"obs.ErrArtifactTooLong":           "the error past the artifact size bound; campaign's decoder test holds DecodeArtifact to it",
	"durable/vfs.Fault.SetRenameError": "a fault seam of the store's crash tests (ROADMAP 7 gives it a caller)",
	"durable/vfs.Fault.SetCloseError":  "a fault seam of the store's crash tests (ROADMAP 7 gives it a caller)",
	"durable/vfs.Fault.SetRemoveError": "a fault seam of the store's crash tests",
	"durable/vfs.Fault.SetWriteError":  "a fault seam of the store's crash tests; crashtest's write-error phase counts journal writes in its own tap, so a snapshot's writes move nothing",
	"durable/vfs.Fault.SetSyncError":   "a fault seam of the store's crash tests",
	"durable/vfs.Fault.Counts":         "a fault seam of the store's crash tests",
	"durable/vfs.Mem.Crashes":          "a fault seam of the store's crash tests",
	"durable/vfs.Mem.DurableLen":       "a fault seam of the store's crash tests",

	// Names a later ROADMAP item deletes or gives a caller.
	"qos.Arbitrator.BusyUpTo":       "the reference arbitrator's linear queries (ROADMAP 1d)",
	"qos.Arbitrator.ExportState":    "the reference arbitrator's linear queries (ROADMAP 1d)",
	"qos.DynamicArbitrator.Active":  "renegotiation moves onto the plane (ROADMAP 2)",
	"qos.DynamicArbitrator.Waiting": "renegotiation moves onto the plane (ROADMAP 2)",
	"qos.DynamicArbitrator.Procs":   "renegotiation moves onto the plane (ROADMAP 2)",
	"durable.Plane.AttachBroker":    "the broker path moves onto the plane with renegotiation (ROADMAP 2)",
	"resbroker.Broker.Release":      "the broker path moves onto the plane with renegotiation (ROADMAP 2)",
	"resbroker.Broker.Bindings":     "the broker path moves onto the plane with renegotiation (ROADMAP 2)",
	"resbroker.Broker.FreeProcs":    "the broker path moves onto the plane with renegotiation (ROADMAP 2)",
	"durable.Plane.JobCompleted":    "journals a completion (KindComplete), which recovery replays; the crash and checkpoint tests drive it, and the wire has no completion op yet",
}

// rowFor returns the key of the row of table that covers name: name itself,
// or the longest prefix of it that ends before a dot.
func rowFor(table map[string]string, name string) (string, bool) {
	for k := name; ; k = k[:strings.LastIndex(k, ".")] {
		if _, ok := table[k]; ok {
			return k, true
		}
		if !strings.Contains(k, ".") {
			return "", false
		}
	}
}

// commonMethods are standard-library interface methods a type may implement
// for a caller that only sees the interface.
var commonMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"ServeHTTP": true, "Read": true, "Write": true, "Close": true, "Seek": true,
	"ReadAt": true, "WriteAt": true, "WriteTo": true, "ReadFrom": true,
	"WriteString": true, "Sync": true, "Stat": true, "Name": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true,
	"UnmarshalText": true, "Format": true, "GoString": true,
	"Lock": true, "Unlock": true, "Timeout": true, "Temporary": true,
}

// TestEveryNameHasACaller holds internal/... to what is used: every
// exported package-level name, and every exported method of an exported
// type, must be used by a non-test file of another package — cmd/,
// examples/, the milan facade, another internal package or bench/.  A name
// only its own package uses is unexported; a name nothing uses is deleted;
// test support is listed in testSupport with its reason.  Exempt are
// methods named like an interface method of the module or a common standard
// one, and a type or constant (an array length) that appears in the
// exported signature or fields of a name another package uses.
func TestEveryNameHasACaller(t *testing.T) {
	m := loadModule(t)

	// Every exported name of internal/..., by object.
	names := map[types.Object]string{}
	internal := func(p *types.Package) bool {
		return p != nil && strings.HasPrefix(p.Path(), "milan/internal/")
	}
	ifaceMethods := map[string]bool{}
	for _, p := range m.pkgs {
		if p.pkg == nil {
			continue
		}
		scope := p.pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if tn, ok := obj.(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < it.NumMethods(); i++ {
						ifaceMethods[it.Method(i).Name()] = true
					}
				}
			}
			if !internal(p.pkg) || !obj.Exported() {
				continue
			}
			short := strings.TrimPrefix(p.path, "milan/internal/") + "." + n
			names[obj] = short
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if f := named.Method(i); f.Exported() {
						names[f] = short + "." + f.Name()
					}
				}
			}
		}
	}

	// Every name some other package uses, then every type in the exported
	// signature or fields of a used name.
	used := map[types.Object]bool{}
	local := map[types.Object]bool{} // used by its own package
	var roots []types.Object
	for _, p := range m.pkgs {
		for _, obj := range p.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if _, ok := names[obj]; !ok {
				continue
			}
			if obj.Pkg() == p.pkg {
				local[obj] = true
			} else if !used[obj] {
				used[obj] = true
				roots = append(roots, obj)
			}
		}
	}
	for obj := range m.signatureNames(roots) {
		used[obj] = true
	}

	var orphans []string
	hit := map[string]bool{}
	for obj, short := range names {
		if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil &&
			(ifaceMethods[f.Name()] || commonMethods[f.Name()]) {
			continue
		}
		k, isListed := rowFor(testSupport, short)
		switch {
		case isListed && used[obj]:
			if k == short {
				t.Errorf("%s has a caller now: take it out of testSupport", short)
			}
		case isListed:
			hit[k] = true
		case used[obj]:
		case local[obj]:
			orphans = append(orphans, "milan/internal/"+short+" (only its own package)")
		default:
			orphans = append(orphans, "milan/internal/"+short+" (unused)")
		}
	}
	for k, why := range testSupport {
		if !hit[k] {
			t.Errorf("testSupport lists %s, which names no exported name without a caller", k)
		}
		if why == "" {
			t.Errorf("testSupport lists %s without a reason", k)
		}
	}
	sort.Strings(orphans)
	if len(orphans) > 0 {
		t.Errorf("%d of %d exported names of internal/... have no caller outside their package (unexport, delete or list each):\n  %s",
			len(orphans), len(names), strings.Join(orphans, "\n  "))
	}
}
