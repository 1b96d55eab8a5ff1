// The served-admission benchmark is a module of its own so that the
// repository's build and test commands do not compile it; it imports
// milan's internal packages through the replace below.
module milan/bench

go 1.22

require milan v0.0.0

replace milan => ../
