module ssrq/bench

go 1.24

require ssrq v0.0.0

replace ssrq => ../
