module uvacg/bench

go 1.22

require uvacg v0.0.0

replace uvacg => ../
