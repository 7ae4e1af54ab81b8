"""R3 negative fixture: charge and data plane move together."""


class Algo:
    def exchange(self, coll, group, parts):
        charges = coll.allgather_charges(group, parts)
        blocks = coll.allgather_data(group, parts)
        return charges, blocks

    def routed(self, coll, routes):
        charges = coll.sendrecv_charges_sized(routes)
        payloads = coll.routed_sendrecv_data(routes)
        return charges, payloads

    def staged(self, coll, routes, blocks):
        posted = coll.routed_broadcast_post(routes, blocks)
        charges = coll.broadcast_charges_sized(routes, True)
        return charges, coll.routed_broadcast_collect(posted)
