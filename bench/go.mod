module bbsmine/bench

go 1.22

require bbsmine v0.0.0

replace bbsmine => ../
