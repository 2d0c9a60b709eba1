# expect: unsafe
system logistic-unsafe-0
var x : real [0, 1]
init x >= 0.05 and x <= 0.07
trans x' = 2.2 * x * (1 - x)
prop x <= 0.41250000000000003
