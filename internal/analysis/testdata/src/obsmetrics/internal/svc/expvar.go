package svc

import "expvar"

// publishExpvar registers expvar variables, a second live surface beside
// /metrics: each registration is a finding. Reading a variable and
// mounting expvar.Handler() for the runtime's default vars are not.
func publishExpvar() {
	expvar.Publish("svc", expvar.Func(func() any { return 1 })) // want: expvar publication
	expvar.NewInt("svc_jobs").Add(1)                            // want: expvar publication
	expvar.NewMap("svc_by_user").Add("a", 1)                    // want: expvar publication
	_ = expvar.Get("svc")
	_ = expvar.Handler()
}
