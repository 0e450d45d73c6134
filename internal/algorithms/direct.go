package algorithms

import (
	"fmt"

	"mpcn/internal/object"
	"mpcn/internal/sched"
	"mpcn/internal/snapshot"
)

// Direct runs alg natively in the model ASM(n, ·, x) (see Native). n is
// len(inputs); the failure pattern (and hence the effective t) is entirely
// the adversary's in cfg.
func Direct(alg Algorithm, inputs []any, x int, cfg sched.Config) (*sched.Result, error) {
	bodies, _, err := Native(alg, inputs, x)
	if err != nil {
		return nil, err
	}
	return sched.Run(cfg, bodies)
}

// Native validates alg for ASM(n, ·, x), n = len(inputs), and builds the
// process bodies of a native run: each algorithm process is one scheduler
// process with input inputs[j], the shared memory is a primitive snapshot
// object named "mem", which Native returns too, and the algorithm's
// declared objects are real x-ported consensus objects. The bodies share
// these objects, so a caller that runs them again resets them first.
func Native(alg Algorithm, inputs []any, x int) ([]sched.Proc, *snapshot.Primitive[any], error) {
	n := len(inputs)
	if n == 0 {
		return nil, nil, fmt.Errorf("algorithms: no inputs for %s", alg.Name())
	}
	if err := alg.Requires(n, x); err != nil {
		return nil, nil, err
	}
	mem := snapshot.NewPrimitive[any]("mem", n)
	portSets := alg.Objects(n)
	objs := make([]*object.XConsensus, len(portSets))
	for a, ports := range portSets {
		if len(ports) > x {
			return nil, nil, fmt.Errorf("algorithms: %s object %d has %d ports, model allows %d",
				alg.Name(), a, len(ports), x)
		}
		ids := make([]sched.ProcID, len(ports))
		for i, p := range ports {
			if p < 0 || p >= n {
				return nil, nil, fmt.Errorf("algorithms: %s object %d port %d out of range", alg.Name(), a, p)
			}
			ids[i] = sched.ProcID(p)
		}
		objs[a] = object.NewXConsensus(fmt.Sprintf("x_cons[%d]", a), x, ids)
	}

	bodies := make([]sched.Proc, n)
	for j := 0; j < n; j++ {
		j := j
		bodies[j] = func(e *sched.Env) {
			alg.Run(&directAPI{e: e, j: j, input: inputs[j], mem: mem, objs: objs})
		}
	}
	return bodies, mem, nil
}

// directAPI implements API for native runs: operations map one-to-one onto
// the shared objects.
type directAPI struct {
	e     *sched.Env
	j     int
	input any
	mem   *snapshot.Primitive[any]
	objs  []*object.XConsensus
}

var _ API = (*directAPI)(nil)

func (a *directAPI) ID() int    { return a.j }
func (a *directAPI) N() int     { return a.mem.Len() }
func (a *directAPI) Input() any { return a.input }

func (a *directAPI) Write(v any) {
	a.mem.Update(a.e, a.j, v)
}

func (a *directAPI) Snapshot() []any {
	return a.mem.Scan(a.e)
}

func (a *directAPI) XConsPropose(obj int, v any) any {
	if obj < 0 || obj >= len(a.objs) {
		panic(fmt.Sprintf("algorithms: process %d proposed to undeclared object %d", a.j, obj))
	}
	return a.objs[obj].Propose(a.e, v)
}

func (a *directAPI) Decide(v any) {
	a.e.Decide(v)
}
