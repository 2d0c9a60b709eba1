# expect: unsafe
system logistic-unsafe-11
var x : real [0, 1]
init x >= 0.15000000000000002 and x <= 0.17
trans x' = 3.1 * x * (1 - x)
prop x <= 0.58125
