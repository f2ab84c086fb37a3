// Fixture: root contexts and transport calls in library code.
package pax

import "context"

type transport interface {
	Call(ctx context.Context, to int, req any) (any, error)
}

// fanOut stands in for the stage fan-out: one round trip per site.
func fanOut(ctx context.Context, sites []int, mk func(int) any) error { return nil }

func bad(tr transport) {
	ctx := context.Background() // want `context\.Background\(\) in library code`
	_ = ctx
	_, _ = tr.Call(context.TODO(), 1, nil) // want `context\.TODO\(\) passed directly into Call` `context\.TODO\(\) in library code`
	_ = fanOut(context.TODO(), nil, nil)   // want `context\.TODO\(\) passed directly into fanOut` `context\.TODO\(\) in library code`
}

func good(ctx context.Context, tr transport) {
	_, _ = tr.Call(ctx, 1, nil)
	_ = fanOut(ctx, nil, nil)
}

func allowed() context.Context {
	//paxlint:allow ctxflow(public blocking wrapper owns its root context)
	return context.Background()
}
