algebra Q(sqrt 2)
tail kfree 2
