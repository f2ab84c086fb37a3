// Fixture: a command owns its root context, but must still flow it into
// the transport rather than minting a fresh one at the call site.
package main

import "context"

type transport interface {
	Call(ctx context.Context, to int, req any) (any, error)
}

func fanOut(ctx context.Context, sites []int, mk func(int) any) error { return nil }

func run(tr transport) {
	ctx := context.Background()
	_, _ = tr.Call(ctx, 1, nil)
	_, _ = tr.Call(context.Background(), 1, nil) // want `context\.Background\(\) passed directly into Call`
	_ = fanOut(ctx, nil, nil)
	_ = fanOut(context.Background(), nil, nil) // want `context\.Background\(\) passed directly into fanOut`
}

func main() {}
